package main

import (
	"math"
	"sort"
)

// stat is one reported metric: its median (or pooled percentile) with the
// quartiles of the samples behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks. xs must be non-empty.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// summarize reports the median of xs with its quartiles.
func summarize(xs []float64, unit string) stat {
	return stat{Value: quantile(xs, 0.5), Unit: unit, Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// single reports one measured value.
func single(v float64, unit string) stat { return stat{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }

// spread is the quartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}
