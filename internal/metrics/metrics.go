// Package metrics provides the small statistics toolkit used by the
// experiment harness: summary statistics, integer histograms, and mergeable
// accumulators for averaging results over multiple multicast sources.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Summary holds basic descriptive statistics of a float sample.
type Summary struct {
	Count  int
	Min    float64
	Max    float64
	Mean   float64
	Stddev float64
}

// Summarize computes a Summary over values. An empty input yields a zero
// Summary.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(values), Min: values[0], Max: values[0]}
	var sum float64
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(len(values)))
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// nearest-rank on a sorted copy. An empty input yields 0.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Histogram accumulates counts over non-negative integer bins (hop counts).
type Histogram struct {
	counts []float64
	total  float64
}

// Add increments bin by weight.
func (h *Histogram) Add(bin int, weight float64) {
	if bin < 0 {
		return
	}
	for len(h.counts) <= bin {
		h.counts = append(h.counts, 0)
	}
	h.counts[bin] += weight
	h.total += weight
}

// AddCounts merges a dense count slice (index = bin) scaled by weight.
func (h *Histogram) AddCounts(counts []int, weight float64) {
	for bin, c := range counts {
		if c != 0 {
			h.Add(bin, float64(c)*weight)
		}
	}
}

// Bins returns the number of bins (max bin + 1).
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the accumulated weight in bin.
func (h *Histogram) Count(bin int) float64 {
	if bin < 0 || bin >= len(h.counts) {
		return 0
	}
	return h.counts[bin]
}

// Total returns the total accumulated weight.
func (h *Histogram) Total() float64 { return h.total }

// Mean returns the weighted mean bin.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for bin, c := range h.counts {
		sum += float64(bin) * c
	}
	return sum / h.total
}

// Mode returns the bin with the largest weight (the peak of the
// distribution; ties resolve to the smallest bin).
func (h *Histogram) Mode() int {
	best, bestCount := 0, math.Inf(-1)
	for bin, c := range h.counts {
		if c > bestCount {
			best, bestCount = bin, c
		}
	}
	return best
}

// Counters is a concurrency-safe set of named monotonic counters. The
// dynamic runtime uses one shared Counters per group to expose forwarding
// outcomes (children acked, retries, segments repaired, segments lost)
// without each observer having to poll every member. The zero value is
// ready to use.
type Counters struct {
	mu sync.Mutex
	m  map[string]uint64
}

// Counter names emitted by the runtime's forwarding engine.
const (
	CounterForwardAcked    = "forward.acked"    // child sends acknowledged
	CounterForwardRetries  = "forward.retries"  // send retries after a failure
	CounterForwardRerouted = "forward.rerouted" // stale table slots routed around by a lookup
	CounterForwardRepaired = "forward.repaired" // orphan segments handed to a live node
	CounterForwardLost     = "forward.lost"     // segments abandoned after repair failed
)

// Add increments the named counter by delta.
func (c *Counters) Add(name string, delta uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]uint64)
	}
	c.m[name] += delta
}

// Get returns the current value of the named counter (0 if never touched).
func (c *Counters) Get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Series is a labeled sequence of (x, y) points — one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Point is one (x, y) sample.
type Point struct {
	X float64
	Y float64
}

// TSV renders the series as tab-separated "x<TAB>y" rows preceded by a
// comment header carrying the label, matching gnuplot conventions.
func (s Series) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Label)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%g\t%g\n", p.X, p.Y)
	}
	return b.String()
}
