package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs must be sorted. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	frac := pos - float64(i)
	switch {
	case i+1 >= len(xs) || frac == 0:
		return xs[i]
	case math.IsInf(xs[i+1], 1):
		return xs[i+1]
	}
	return xs[i] + frac*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// nsQuantiles returns the requested quantiles of ns, in microseconds. A
// lost request sorts last, so it counts against every quantile it
// reaches.
func nsQuantiles(ns []int64, qs ...float64) []float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		if v == lost {
			xs[i] = math.Inf(1)
		} else {
			xs[i] = float64(v) / 1e3
		}
	}
	sort.Float64s(xs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(xs, q)
	}
	return out
}
