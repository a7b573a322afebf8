package main

import (
	"math"
	"sort"
	"time"
)

// inf is the latency of a failed operation: it misses every limit.
var inf = math.Inf(1)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. +Inf entries (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tail returns the latency at p99, or at the highest percentile that
// still has at least 10 samples beyond it when there are fewer than 1000
// samples, together with that percentile. It is the order statistic with
// max(10, n/100) samples above it.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	beyond := max(10, n/100)
	if beyond >= n {
		beyond = n - 1
	}
	s := sortedCopy(xs)
	idx := n - 1 - beyond
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// blockTail splits xs (in request order) into consecutive blocks of
// size n, takes each block's tail, and returns the median of those tails
// and the number of blocks. With fewer than n samples it is tail(xs).
// Host noise comes in bursts of a second or so; the median over blocks
// keeps one burst from setting a whole run's tail.
func blockTail(xs []float64, n int) (float64, int) {
	if len(xs) < n {
		v, _ := tail(xs)
		return v, 1
	}
	var tails []float64
	for i := 0; i+n <= len(xs); i += n {
		v, _ := tail(xs[i : i+n])
		tails = append(tails, v)
	}
	return median(tails), len(tails)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// timeIt runs fn and returns its wall time in seconds.
func timeIt(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}
