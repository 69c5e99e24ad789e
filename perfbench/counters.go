package main

import (
	"bufio"
	"math"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"camcast"
	"camcast/internal/obsv"
)

// procSnap is the process-wide counters read around a timed phase: CPU
// time from getrusage, syscall counts from /proc/self/io, and allocation,
// GC and scheduler figures from runtime/metrics.
type procSnap struct {
	cpu          time.Duration
	syscr, syscw uint64
	allocs       uint64
	allocBytes   uint64
	gcCycles     uint64
	gcPauses     *metrics.Float64Histogram
	schedLatency *metrics.Float64Histogram
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readProc() procSnap {
	var s procSnap
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.syscr, s.syscw = readProcIO()
	samples := make([]metrics.Sample, len(procMetricNames))
	for i, name := range procMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	s.allocs = sampleUint(samples[0])
	s.allocBytes = sampleUint(samples[1])
	s.gcCycles = sampleUint(samples[2])
	s.gcPauses = sampleHist(samples[3])
	s.schedLatency = sampleHist(samples[4])
	return s
}

func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func sampleHist(s metrics.Sample) *metrics.Float64Histogram {
	if s.Value.Kind() == metrics.KindFloat64Histogram {
		return s.Value.Float64Histogram()
	}
	return nil
}

// readProcIO returns the read and write syscall counts of this process;
// zeros where /proc/self/io is unavailable.
func readProcIO() (syscr, syscw uint64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		v, _ := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		switch key {
		case "syscr":
			syscr = v
		case "syscw":
			syscw = v
		}
	}
	return syscr, syscw
}

// procDelta is what happened to the process between two snapshots.
type procDelta struct {
	cpu          time.Duration
	syscr, syscw float64
	allocs       float64
	allocBytes   float64
	gcCycles     float64
	gcPauseP99   time.Duration
	schedP99     time.Duration
}

// add accumulates o into d; percentiles keep the worse of the two.
func (d *procDelta) add(o procDelta) {
	d.cpu += o.cpu
	d.syscr += o.syscr
	d.syscw += o.syscw
	d.allocs += o.allocs
	d.allocBytes += o.allocBytes
	d.gcCycles += o.gcCycles
	d.gcPauseP99 = max(d.gcPauseP99, o.gcPauseP99)
	d.schedP99 = max(d.schedP99, o.schedP99)
}

func (a procSnap) sub(b procSnap) procDelta {
	return procDelta{
		cpu:        a.cpu - b.cpu,
		syscr:      float64(a.syscr - b.syscr),
		syscw:      float64(a.syscw - b.syscw),
		allocs:     float64(a.allocs - b.allocs),
		allocBytes: float64(a.allocBytes - b.allocBytes),
		gcCycles:   float64(a.gcCycles - b.gcCycles),
		gcPauseP99: runtimeHistQuantile(a.gcPauses, b.gcPauses, 0.99),
		schedP99:   runtimeHistQuantile(a.schedLatency, b.schedLatency, 0.99),
	}
}

// runtimeHistQuantile interpolates the q-quantile of the difference of two
// cumulative runtime/metrics histograms.
func runtimeHistQuantile(after, before *metrics.Float64Histogram, q float64) time.Duration {
	if after == nil {
		return 0
	}
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i, c := range after.Counts {
		if before != nil && i < len(before.Counts) {
			c -= before.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if c > 0 && next >= rank {
			lo, hi := after.Buckets[i], after.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			v := lo + (hi-lo)*(rank-cum)/float64(c)
			return time.Duration(v * float64(time.Second))
		}
		cum = next
	}
	return 0
}

// heapInUseMB forces a collection and reports the Go heap in use.
func heapInUseMB() float64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// registry is the sum of every member's metrics registry and protocol
// counters: a snapshot at one instant, or the change across a phase.
type registry struct {
	counters map[string]float64
	hists    map[string]obsv.HistogramSnapshot
	stats    camcast.Stats
}

func newRegistry() registry {
	return registry{counters: map[string]float64{}, hists: map[string]obsv.HistogramSnapshot{}}
}

func sumMembers(ms []*camcast.TCPMember) registry {
	s := newRegistry()
	for _, m := range ms {
		snap := m.Metrics()
		for k, v := range snap.Counters {
			s.counters[k] += float64(v)
		}
		for k, h := range snap.Histograms {
			s.hists[k] = histAdd(s.hists[k], h)
		}
		s.stats = combineStats(s.stats, m.Stats(), func(a, b uint64) uint64 { return a + b })
	}
	return s
}

// add accumulates o into r.
func (r *registry) add(o registry) {
	if r.counters == nil {
		*r = newRegistry()
	}
	for k, v := range o.counters {
		r.counters[k] += v
	}
	for k, h := range o.hists {
		r.hists[k] = histAdd(r.hists[k], h)
	}
	r.stats = combineStats(r.stats, o.stats, func(a, b uint64) uint64 { return a + b })
}

// sub returns the change from b to r.
func (r registry) sub(b registry) registry {
	d := newRegistry()
	for k, v := range r.counters {
		d.counters[k] = v - b.counters[k]
	}
	for k, h := range r.hists {
		d.hists[k] = histDelta(h, b.hists[k])
	}
	d.stats = combineStats(r.stats, b.stats, func(a, b uint64) uint64 { return a - b })
	return d
}

// combineStats applies op field by field.
func combineStats(a, b camcast.Stats, op func(a, b uint64) uint64) camcast.Stats {
	return camcast.Stats{
		Delivered:        op(a.Delivered, b.Delivered),
		Forwarded:        op(a.Forwarded, b.Forwarded),
		Duplicates:       op(a.Duplicates, b.Duplicates),
		Lookups:          op(a.Lookups, b.Lookups),
		TableFaults:      op(a.TableFaults, b.TableFaults),
		ChildrenAcked:    op(a.ChildrenAcked, b.ChildrenAcked),
		Retries:          op(a.Retries, b.Retries),
		SegmentsRepaired: op(a.SegmentsRepaired, b.SegmentsRepaired),
		SegmentsLost:     op(a.SegmentsLost, b.SegmentsLost),
	}
}
