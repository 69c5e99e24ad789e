package main

import (
	"math"
	"sort"
	"time"

	"camcast/internal/obsv"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is quantile(xs, q) when at least minBeyond samples lie
// beyond it; otherwise the highest quantile that still has minBeyond
// samples past it (never below the median).
func tailQuantile(xs []float64, q float64, minBeyond int) float64 {
	if n := float64(len(xs)); n*(1-q) < float64(minBeyond) {
		q = max(0.5, 1-float64(minBeyond)/n)
	}
	return quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts a sample of durations to float64s in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// histQuantile estimates the q-quantile of a bucketed histogram by linear
// interpolation inside the bucket holding the rank (the registry's own
// Quantile returns bucket bounds, which would read identically run after
// run). Observations in the overflow bucket report the last bound.
func histQuantile(h obsv.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, b := range h.Buckets {
		next := cum + float64(b)
		if b > 0 && next >= rank {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			return lo + (h.Bounds[i]-lo)*(rank-cum)/float64(b)
		}
		cum = next
	}
	return h.Bounds[len(h.Bounds)-1]
}

// histDelta returns after minus before, bucket by bucket. A histogram
// absent from before counts as empty.
func histDelta(after, before obsv.HistogramSnapshot) obsv.HistogramSnapshot {
	out := obsv.HistogramSnapshot{
		Count:   after.Count - before.Count,
		Sum:     after.Sum - before.Sum,
		Bounds:  after.Bounds,
		Buckets: make([]uint64, len(after.Buckets)),
	}
	copy(out.Buckets, after.Buckets)
	for i := range before.Buckets {
		if i < len(out.Buckets) {
			out.Buckets[i] -= before.Buckets[i]
		}
	}
	return out
}

// histAdd accumulates h into acc (same bounds) and returns acc.
func histAdd(acc, h obsv.HistogramSnapshot) obsv.HistogramSnapshot {
	if acc.Buckets == nil {
		acc.Bounds = h.Bounds
		acc.Buckets = make([]uint64, len(h.Buckets))
	}
	acc.Count += h.Count
	acc.Sum += h.Sum
	for i, b := range h.Buckets {
		if i < len(acc.Buckets) {
			acc.Buckets[i] += b
		}
	}
	return acc
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
