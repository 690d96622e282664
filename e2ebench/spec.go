package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec declares one reported metric. BENCHMARK.json at the
// repository root declares the same names and units (plus direction and,
// for end-to-end metrics, the regression bound); TestMetricsMatchBenchmarkJSON
// keeps the two in step.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from untraced repetitions.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"job_norm_s", "s"},
	{"peak_rss_mb", "MB"},
}

// modules are the host-time layers a traced repetition's CPU samples are
// charged to (see attrib.go); stages are the pipeline stages.
var (
	modules = []string{
		"machine", "cache", "mem", "stride", "hwpf", "obs", "compiler", "prefetch",
		"profile", "pipeline", "walstore", "server", "api", "client", "json", "net", "bench",
	}
	stages = []string{"instrument", "profile_run", "extract", "insert", "measure_run", "other"}
	// arenaSchemes are the hardware prefetchers the arena races
	// (hwpf.Schemes at the time the benchmark was defined).
	arenaSchemes = []string{"baer-chen", "multi-stride", "rpt", "tracker"}
)

// perLayer lists the per-layer metrics in report order, reported by every
// workload of a traced run (0 where a layer does not take part).
var perLayer = func() []metricSpec {
	var out []metricSpec
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{n, unit})
		}
	}
	for _, m := range modules {
		add("s", m+".self_s")
	}
	add("s", "runtime.gc_s", "runtime.other_s")
	for _, s := range stages {
		add("s", "stage."+s+"_s")
	}
	add("count", "trace.samples")
	add("ratio", "trace.overhead_frac")
	add("s", "job_s", "calib_s")
	for f := 15; f <= 25; f++ {
		add("s", fmt.Sprintf("experiments.fig%d_s", f))
	}
	add("count", "sim.profile_instrs", "sim.clean_instrs", "sim.clean_cycles",
		"stride.hook_calls", "stride.processed_refs", "stride.lfu_calls",
		"cache.demand_miss_cycles", "cache.prefetch_useful", "cache.prefetch_late", "cache.prefetch_drops")
	for _, s := range arenaSchemes {
		add("count", "hwpf."+s+".issued")
		add("ratio", "hwpf."+s+".accuracy")
	}
	add("shards/s", "ingest_shards_per_s")
	add("ms", "ingest_p50_ms", "ingest_p99_ms")
	add("count", "ingest_n")
	add("ms", "read_p50_ms", "read_p99_ms")
	add("count", "read_n")
	add("ms", "plan_lag_p50_ms", "plan_lag_p99_ms")
	add("count", "plan_lag_n")
	add("ms", "walstore.upload_ms.p50", "walstore.upload_ms.p99", "walstore.upload_ms.max", "walstore.get_ms.p50")
	add("bytes", "walstore.dir_bytes")
	add("ms", "gate.wait_ms.p50", "gate.wait_ms.p99")
	add("count", "gate.queue_max")
	add("ms", "server.ingest_ms.p50", "server.ingest_ms.p99", "server.read_ms.p50", "server.read_ms.p99", "net.ingest_ms.p50")
	add("count", "plan.deltas", "plan.rounds")
	add("ratio", "plan.useful_frac")
	add("count", "svc.uploads", "svc.replays")
	add("MB", "svc.wire_mb")
	return out
}()

// unitOf returns the declared unit of a metric name.
func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// benchFile is the part of BENCHMARK.json this program reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// benchMetric is one metric declaration of BENCHMARK.json; Bound is zero
// for per-layer metrics, which have none.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBenchFile parses BENCHMARK.json in the repository root.
func readBenchFile(root string) (*benchFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
