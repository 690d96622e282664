package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// profileHz is the CPU profiling rate of a traced repetition.
const profileHz = 500

// repResult is one repetition's outcome.
type repResult struct {
	// JobS is the wall time of the timed phase.
	JobS      float64
	Attempted int
	Failed    int
	Failures  []string
	// Counts are simulated statistics: deterministic, so every repetition
	// must reproduce them exactly.
	Counts map[string]float64
	// Values are per-repetition measurements, reported as their median.
	Values map[string]float64
	// Samples are latency samples, pooled across repetitions.
	Samples map[string][]float64
}

func newRepResult() repResult {
	return repResult{Values: map[string]float64{}, Samples: map[string][]float64{}}
}

func (r *repResult) fail(msg string) {
	r.Failed++
	r.Failures = append(r.Failures, msg)
}

// runner runs timed repetitions of a workload after its set-up; tr is nil
// for untraced repetitions.
type runner interface {
	rep(ctx context.Context, i int, tr *tracer) (repResult, error)
}

// workload is one traffic pattern of the benchmark.
type workload struct {
	name string
	// setups is how many times one run sets the workload up (each in a
	// fresh process) to report the median set-up time.
	setups int
	setup  func(seed uint64) (runner, error)
}

var workloadTable = []workload{
	{"paper-figures", 15, func(uint64) (runner, error) { return newPaperFigures(repoRoot) }},
	{"hwpf-arena", 15, func(uint64) (runner, error) {
		return newHWPFArena(repoRoot, paperWorkloads, filepath.Join("e2ebench", "testdata", "arena_all.golden"))
	}},
	{"strided-mix", 5, func(seed uint64) (runner, error) {
		return newStrideMix(filepath.Join(repoRoot, ".bench_build"), seed, paperWorkloads, mixRequests)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// childReport is what a workload process hands back to the parent as the
// last line of its standard output.
type childReport struct {
	ReadyNS   int64    `json:"ready_ns"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// JobS holds the untraced repetitions' job times, CalS the calibration
	// times taken around them.
	JobS []float64 `json:"job_s,omitempty"`
	CalS []float64 `json:"cal_s,omitempty"`
	// Metrics are the per-layer metrics of a traced run.
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Tails     map[string]tail    `json:"tails,omitempty"`
	Breakdown *breakdown         `json:"breakdown,omitempty"`
}

// calRefS is what calibrate takes on the machine the benchmark was defined
// on (2-vCPU Xeon at 2.1 GHz, go1.24), the speed setup_s and job_norm_s
// are scaled to.
const calRefS = 0.115

// calSink keeps the calibration loop's result alive.
var calSink uint64

// calibrate times a fixed integer loop that shares no code with the
// program under test. On a shared host the machine's speed drifts by up to
// ±20% over minutes, and CPU time drifts with wall time, so no repetition
// count takes the drift out of a wall time. The loop slows with the
// machine (over 30-second windows its time and a job's correlated at 0.8
// to 0.9), so a job time divided by it keeps more of the program's own
// cost and less of the host's.
func calibrate() float64 {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x % 7
	}
	calSink += acc
	return time.Since(t0).Seconds()
}

// measure runs repetitions until the next one would end more than 15%
// past the budget, always at least one, and calibrates before each and
// after the last. A traced run spends half the budget untraced, then runs
// one traced repetition under a CPU profile and reports the per-layer
// metrics.
func measure(ctx context.Context, name string, r runner, seconds float64, traceDir string) (childReport, error) {
	var rep childReport
	budget := seconds
	if traceDir != "" {
		budget /= 2
	}
	var (
		reps  []repResult
		walls []float64
	)
	start := time.Now()
	for {
		rep.CalS = append(rep.CalS, calibrate())
		r0 := time.Now()
		res, err := r.rep(ctx, len(reps), nil)
		if err != nil {
			return rep, err
		}
		walls = append(walls, time.Since(r0).Seconds())
		reps = append(reps, res)
		rep.JobS = append(rep.JobS, res.JobS)
		if time.Since(start).Seconds()+median(walls) > budget*1.15 {
			break
		}
	}
	rep.CalS = append(rep.CalS, calibrate())
	untraced := len(reps)
	if traceDir != "" {
		traced, bd, err := tracedRep(ctx, name, r, untraced, traceDir)
		if err != nil {
			return rep, err
		}
		reps = append(reps, traced)
		rep.Breakdown = &bd
	}
	for i, res := range reps {
		rep.Attempted += res.Attempted
		rep.Failed += res.Failed
		rep.Failures = append(rep.Failures, res.Failures...)
		if i > 0 {
			rep.Attempted++
			if !maps.Equal(res.Counts, reps[0].Counts) {
				rep.Failed++
				rep.Failures = append(rep.Failures, fmt.Sprintf("repetition %d: simulated counts differ from repetition 1", i+1))
			}
		}
	}
	if traceDir != "" {
		rep.Metrics, rep.Tails = layerMetrics(reps[:untraced], reps[untraced], rep.CalS, *rep.Breakdown)
	}
	return rep, nil
}

// tracedRep runs one repetition with spans and a CPU profile, writes both
// to traceDir, and attributes the profile.
func tracedRep(ctx context.Context, name string, r runner, i int, traceDir string) (repResult, breakdown, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return repResult{}, breakdown{}, err
	}
	path := filepath.Join(traceDir, name+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return repResult{}, breakdown{}, err
	}
	defer f.Close()
	tr := newTracer()
	var (
		profErr   error
		profiling bool
		cpu0, cpu float64
	)
	tr.onTimed = func(start bool) {
		switch {
		case start && !profiling:
			// pprof.StartCPUProfile asks for its own 100 Hz and warns that
			// the rate is already set; the profile records the rate used.
			runtime.SetCPUProfileRate(profileHz)
			profErr = pprof.StartCPUProfile(f)
			profiling = profErr == nil
			cpu0 = processCPU()
		case !start && profiling:
			cpu = processCPU() - cpu0
			pprof.StopCPUProfile()
			profiling = false
		}
	}
	res, err := r.rep(ctx, i, tr)
	tr.timed(false) // a repetition that failed mid-phase
	if err == nil {
		err = profErr
	}
	if err != nil {
		return res, breakdown{}, err
	}
	if err := f.Close(); err != nil {
		return res, breakdown{}, err
	}
	if err := tr.writeJSONL(filepath.Join(traceDir, name+".spans.jsonl")); err != nil {
		return res, breakdown{}, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s: traced repetition wrote %d spans and %s\n", name, tr.count(), path)
	bd, err := attributeProfile(path)
	bd.CPUS = cpu
	return res, bd, err
}

// processCPU returns the user plus system CPU seconds this process used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// tailMetrics maps latency sample sets to their reported percentiles.
var tailMetrics = []struct {
	samples, metric string
	pct             int
}{
	{"ingest_ms", "ingest_p50_ms", 50}, {"ingest_ms", "ingest_p99_ms", 99},
	{"read_ms", "read_p50_ms", 50}, {"read_ms", "read_p99_ms", 99},
	{"plan_lag_ms", "plan_lag_p50_ms", 50}, {"plan_lag_ms", "plan_lag_p99_ms", 99},
	{"walstore.upload_ms", "walstore.upload_ms.p50", 50}, {"walstore.upload_ms", "walstore.upload_ms.p99", 99},
	{"walstore.get_ms", "walstore.get_ms.p50", 50},
	{"gate.wait_ms", "gate.wait_ms.p50", 50}, {"gate.wait_ms", "gate.wait_ms.p99", 99},
	{"server.ingest_ms", "server.ingest_ms.p50", 50}, {"server.ingest_ms", "server.ingest_ms.p99", 99},
	{"server.read_ms", "server.read_ms.p50", 50}, {"server.read_ms", "server.read_ms.p99", 99},
	{"net.ingest_ms", "net.ingest_ms.p50", 50},
}

// layerMetrics assembles every per-layer metric: latencies, values and the
// raw job and calibration times from the untraced repetitions, counts from
// any repetition (they agree), CPU attribution and tracing overhead from
// the traced one. Layers a workload does not exercise report 0.
func layerMetrics(untraced []repResult, traced repResult, calS []float64, bd breakdown) (map[string]float64, map[string]tail) {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	for k, v := range untraced[0].Counts {
		out[k] = v
	}
	values := map[string][]float64{}
	samples := map[string][]float64{}
	for _, r := range untraced {
		for k, v := range r.Values {
			values[k] = append(values[k], v)
		}
		for k, s := range r.Samples {
			samples[k] = append(samples[k], s...)
		}
	}
	for k, vs := range values {
		out[k] = median(vs)
	}
	tails := map[string]tail{}
	for _, tm := range tailMetrics {
		if t, ok := percentile(samples[tm.samples], tm.pct); ok {
			out[tm.metric] = t.Value
			tails[tm.metric] = t
		}
	}
	out["ingest_n"] = float64(len(samples["ingest_ms"]))
	out["read_n"] = float64(len(samples["read_ms"]))
	out["plan_lag_n"] = float64(len(samples["plan_lag_ms"]))
	if s := samples["walstore.upload_ms"]; len(s) > 0 {
		out["walstore.upload_ms.max"] = slices.Max(s)
	}
	for stage, us := range bd.Stage {
		out["stage."+stage+"_s"] = bd.seconds(us)
	}
	for module, us := range bd.Module {
		if module == "runtime.gc" || module == "runtime.other" {
			out[module+"_s"] = bd.seconds(us)
		} else {
			out[module+".self_s"] = bd.seconds(us)
		}
	}
	out["trace.samples"] = float64(bd.TotalUS) / (1e6 / profileHz)
	jobs := make([]float64, len(untraced))
	for i, r := range untraced {
		jobs[i] = r.JobS
	}
	out["trace.overhead_frac"] = traced.JobS/median(jobs) - 1
	out["job_s"] = median(jobs)
	out["calib_s"] = median(calS)
	// Keep only declared metrics: a repetition may record more (the arena
	// figure's own timing, for one) than the ledger reports.
	for k := range out {
		if unitOf(k) == "" {
			delete(out, k)
		}
	}
	return out, tails
}
