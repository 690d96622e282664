package main

import (
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricsMatchBenchmarkJSON keeps the metrics this program prints and
// the ones BENCHMARK.json declares identical, and the file within its
// limits on names, counts and bounds.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchFile("..")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []metricSpec, file []benchMetric, bounded bool) {
		t.Helper()
		declared := map[string]benchMetric{}
		for _, m := range file {
			declared[m.Name] = m
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %g outside (0, 0.25]", kind, m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s metric %s has a bound", kind, m.Name)
			}
		}
		printed := map[string]bool{}
		for _, m := range code {
			printed[m.Name] = true
			d, ok := declared[m.Name]
			if !ok {
				t.Errorf("%s metric %s is printed but not declared in BENCHMARK.json", kind, m.Name)
			} else if d.Unit != m.Unit {
				t.Errorf("%s metric %s: unit %q, BENCHMARK.json says %q", kind, m.Name, m.Unit, d.Unit)
			}
		}
		for name := range declared {
			if !printed[name] {
				t.Errorf("%s metric %s is declared in BENCHMARK.json but never printed", kind, name)
			}
		}
		if len(declared) != len(file) {
			t.Errorf("%s metrics: BENCHMARK.json declares a name twice", kind)
		}
	}
	check("end-to-end", endToEnd, bf.EndToEnd, true)
	check("per-layer", perLayer, bf.PerLayer, false)

	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1-16 and 1-128", len(bf.EndToEnd), len(bf.PerLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]benchMetric(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	setup := false
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range bf.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %g is below %s's %g", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}

	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloadTable) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d (want 2-8)", n, len(workloadTable))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadTable[i].name || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %q), the program %q", i, w.Name, w.Why, workloadTable[i].name)
		}
	}
}

// TestReportedMetricsAreDeclared checks the assembled metric sets, not
// just the declaration lists: an untraced run reports exactly the
// end-to-end metrics, a traced run exactly the per-layer ones.
func TestReportedMetricsAreDeclared(t *testing.T) {
	e2e := endToEndMetrics([]float64{1}, []float64{2 * calRefS}, []float64{0.1}, 1024)
	if e2e["job_norm_s"] != 0.5 || e2e["setup_s"] != 0.05 {
		t.Errorf("job_norm_s = %g, setup_s = %g for a 1 s job and 0.1 s set-up on a machine at half the reference speed, want 0.5 and 0.05",
			e2e["job_norm_s"], e2e["setup_s"])
	}
	if len(e2e) != len(endToEnd) {
		t.Errorf("untraced run reports %d metrics, %d declared", len(e2e), len(endToEnd))
	}
	for _, m := range endToEnd {
		if _, ok := e2e[m.Name]; !ok {
			t.Errorf("untraced run does not report %s", m.Name)
		}
	}
	rep := newRepResult()
	rep.JobS = 1
	rep.Values["experiments.figarena_s"] = 1 // recorded but not a ledger metric
	layers, _ := layerMetrics([]repResult{rep}, rep, []float64{calRefS}, breakdown{
		TotalUS: 2000,
		Stage:   map[string]int64{"other": 2000},
		Module:  map[string]int64{"runtime.gc": 1000, "machine": 1000},
	})
	if len(layers) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, %d declared", len(layers), len(perLayer))
	}
	for _, m := range perLayer {
		if _, ok := layers[m.Name]; !ok {
			t.Errorf("traced run does not report %s", m.Name)
		}
	}
	if layers["runtime.gc_s"] != 0.001 || layers["machine.self_s"] != 0.001 || layers["trace.samples"] != 1 {
		t.Errorf("attribution not carried into metrics: %v %v %v",
			layers["runtime.gc_s"], layers["machine.self_s"], layers["trace.samples"])
	}
}
