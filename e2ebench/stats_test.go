package main

import (
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: percentile must sort
	}
	return out
}

func TestPercentileEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		pct     int
		ok      bool
		want    tail
	}{
		{"empty", nil, 50, false, tail{}},
		{"ten samples leave none beyond", seq(10), 50, false, tail{N: 10}},
		{"eleven samples: only the minimum qualifies", seq(11), 50, true, tail{Value: 1, Pct: 100.0 / 11, N: 11}},
		{"p50 exact", seq(100), 50, true, tail{Value: 50, Pct: 50, N: 100}},
		{"p99 exact at 1000", seq(1000), 99, true, tail{Value: 990, Pct: 99, N: 1000}},
		{"p99 lowered at 500", seq(500), 99, true, tail{Value: 490, Pct: 98, N: 500}},
		{"p99 lowered at 999", seq(999), 99, true, tail{Value: 989, Pct: 100 * 989.0 / 999, N: 999}},
		{"p100 keeps ten beyond", seq(50), 100, true, tail{Value: 40, Pct: 80, N: 50}},
	}
	for _, c := range cases {
		got, ok := percentile(c.samples, c.pct)
		if ok != c.ok || got != c.want {
			t.Errorf("%s: percentile = %+v, %v; want %+v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5.5, 1.25, 9, 2, 7.75, 3, 8, 4.5}, 2.25, 7.9375},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", m)
	}
}

func TestVerdict(t *testing.T) {
	lower := benchMetric{Name: "job_s", Better: "lower", Bound: 0.10}
	higher := benchMetric{Name: "rate", Better: "higher", Bound: 0.10}
	setup := benchMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95}
	cases := []struct {
		m        benchMetric
		old, cur []float64
		want     string
	}{
		{lower, steady, []float64{10.2, 10.3, 10.1}, "same"},
		{lower, steady, []float64{11.5, 11.6, 11.4}, "worse"},
		{lower, steady, []float64{9, 9.1, 8.9}, "better"},
		{higher, steady, []float64{8.8, 8.9, 8.7}, "worse"},
		{higher, steady, []float64{11.5, 11.6, 11.4}, "better"},
		{lower, []float64{8, 12, 9, 13}, []float64{11, 11.5}, "unresolved"},
		{lower, []float64{8, 12, 9, 13}, []float64{6, 7}, "better"},
		{benchMetric{Name: "cache.self_s", Better: "lower"}, steady, steady, "info"},
		// setup_s changes count only beyond the 0.05 s floor.
		{setup, []float64{0.002, 0.002, 0.002}, []float64{0.04, 0.04, 0.04}, "same"},
		{setup, []float64{0.002, 0.002, 0.002}, []float64{0.06, 0.06, 0.06}, "worse"},
		{setup, []float64{0.4, 0.4, 0.4}, []float64{0.55, 0.55, 0.55}, "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.old, c.cur); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.m.Name, c.old, c.cur, got, c.want)
		}
	}
}

// TestCompareFailedFrac: a change whose runs fail more often is worse,
// whatever its timings.
func TestCompareFailedFrac(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failed int, jobS float64) string {
		path := filepath.Join(dir, name)
		rec := runRecord{Workload: "strided-mix", Result: result{
			Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{"job_s": {Value: jobS, Unit: "s"}},
		}}
		if err := appendRecords(path, []runRecord{rec, rec, rec}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old, faster, failing := write("old", 0, 2), write("faster", 0, 1.5), write("failing", 1, 1.5)
	for _, c := range []struct {
		cur       string
		wantWorse bool
	}{{faster, false}, {failing, true}} {
		var out strings.Builder
		worse, err := compare(&out, "..", old, c.cur)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.wantWorse {
			t.Errorf("%s: worse = %v, want %v\n%s", filepath.Base(c.cur), worse, c.wantWorse, out.String())
		}
		if c.wantWorse && !regexp.MustCompile(`failed_frac .* worse`).MatchString(out.String()) {
			t.Errorf("%s: no failed_frac row marked worse\n%s", filepath.Base(c.cur), out.String())
		}
	}
}
