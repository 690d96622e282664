package main

import "sort"

// minBeyond is how many samples must lie above a reported percentile: a
// tail estimate resting on fewer is noise.
const minBeyond = 10

// tail is one reported percentile: its value, the percentile it actually
// is, and the sample count it was taken from.
type tail struct {
	Value float64 `json:"value"`
	Pct   float64 `json:"pct"`
	N     int     `json:"n"`
}

// percentile returns the nearest-rank pct-th percentile of samples,
// lowered to the highest percentile that still has at least minBeyond
// samples ranked above it. ok is false when there are too few samples for
// any percentile to qualify.
func percentile(samples []float64, pct int) (t tail, ok bool) {
	n := len(samples)
	t.N = n
	if n <= minBeyond {
		return t, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := (pct*n + 99) / 100 // ceil(pct/100 * n) in integers
	t.Pct = float64(pct)
	if k < 1 {
		k = 1
	}
	if k > n-minBeyond {
		k = n - minBeyond
		t.Pct = 100 * float64(k) / float64(n)
	}
	t.Value = s[k-1]
	return t, true
}

// median returns the middle value (the mean of the middle two for an even
// count), or 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
// spreads computed here match ones computed from the run records with
// Python.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise measure the bounds in BENCHMARK.json are checked
// against.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / med
}
