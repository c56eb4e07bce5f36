package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric over the reps of a run.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	q := quantiles(values, 4)
	return summary{Unit: unit, Median: q[1], Q1: q[0], Q3: q[2], N: len(values), Values: values}
}

// spread is the quartile distance of the samples as a share of the median.
func (s summary) spread() float64 {
	iqr := s.Q3 - s.Q1
	switch {
	case iqr == 0:
		return 0
	case s.Median == 0:
		return math.Inf(1)
	}
	return math.Abs(iqr / s.Median)
}

// medianSpread estimates the quartile distance the median itself would show
// over repeated runs, as a share of the median: the run-to-run noise a bound
// on the median has to exceed.  For normal samples the median's standard
// error is √(π/2)·σ/√n, and a quartile distance is a fixed multiple of σ.
// It is smaller than the spread of single samples by that factor: pattern
// counts on large-nonrobust vary 16 % from rep to rep, and their run medians
// 7.5 % from seed to seed.
func (s summary) medianSpread() float64 {
	return s.spread() * math.Sqrt(math.Pi/2/float64(max(s.N, 1)))
}

// medianRange is the quartile range medianSpread gives, around the median.
func (s summary) medianRange() (lo, hi float64) {
	h := s.medianSpread() * math.Abs(s.Median) / 2
	return s.Median - h, s.Median + h
}

// quantiles returns the n-1 cut points dividing xs into n groups, by the
// exclusive method of Python's statistics.quantiles — the definition the
// benchmark's acceptance check applies to its runs, so the benchmark reports
// the same quartiles.  One value yields itself at every cut point; an empty
// slice yields NaNs.
func quantiles(xs []float64, n int) []float64 {
	cuts := make([]float64, n-1)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		for i := range cuts {
			cuts[i] = math.NaN()
		}
		return cuts
	case 1:
		for i := range cuts {
			cuts[i] = s[0]
		}
		return cuts
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		cuts[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return cuts
}

func median(xs []float64) float64 { return quantiles(xs, 2)[0] }
