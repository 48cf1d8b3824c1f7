package main

import (
	"math"
	"sort"
)

// quantile reads the q-quantile (0..1) off an ascending slice by linear
// interpolation between the two nearest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median is the 0.5-quantile of v (unsorted input).
func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) computes them (the exclusive
// method), which is what the driver uses for its spread check; fewer than
// two values collapse to the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// nanosToMs converts a nanosecond sample set to sorted milliseconds.
func nanosToMs(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, 0 when b is 0 — hit ratios of caches nobody consulted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
