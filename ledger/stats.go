package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank q-quantile of xs: sort ascending and
// take the ceil(q·n)-th smallest value (1-based), so p50 of an even
// sample is the lower middle and p100 the maximum. Every latency the
// benchmark reports goes through this one definition. xs is sorted in
// place; an empty sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// mean is the arithmetic mean (0 for an empty sample). Span-derived
// per-layer times are means rather than medians: means add up, so the
// layers of the ledger sum to the mean request, and they resolve
// changes finer than the traces' whole-microsecond spans.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// with the definitions of Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method) and statistics.median — the rule the
// acceptance check of repeated runs uses, reproduced so -runs prints the
// same spread. xs is sorted in place; fewer than two values return the
// single value (or 0) three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		med = xs[n/2]
	} else {
		med = (xs[n/2-1] + xs[n/2]) / 2
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), med, cut(3)
}
