package main

import (
	"math"
	"slices"
)

// quantileSorted returns the q-quantile (0..1) of an ascending slice by
// the nearest-rank rule, so the reported value is always one of the
// samples — exact latencies stay exact.
func quantileSorted(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// quantileUs is quantileSorted for nanosecond samples, in microseconds.
func quantileUs(xs []int64, q float64) float64 { return us(float64(quantileSorted(xs, q))) }

func meanInt64(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method of Python's statistics.quantiles(xs, n=4) — the rule
// the acceptance driver applies to a set of runs. Fewer than two samples
// have no spread: all three are the sample itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := slices.Sorted(slices.Values(xs))
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
