// Command interpbench runs the interpreter micro-benchmarks and emits the
// results as JSON, so successive PRs can track the perf trajectory in a
// machine-readable form (see BENCH_interp.json at the repo root).
//
// Usage:
//
//	interpbench [-o BENCH_interp.json] [-bench regexp] [-benchtime 2s] [-pkg ./internal/machine/]
//	           [-history BENCH_history.jsonl] [-compare old.json] [-pairs]
//
// It shells out to `go test -bench` (so the numbers are exactly what a
// developer sees) and parses the standard benchmark output, including custom
// metrics such as instrs/s reported by BenchmarkMachineThroughput.
//
// Besides overwriting -o, every run appends one compact JSON line to the
// -history file (default BENCH_history.jsonl; empty disables), so the full
// perf trajectory survives baseline refreshes. With -compare old.json the
// new results are diffed per benchmark against a previous report and the
// command exits nonzero when any benchmark's ns/op regresses by more than
// 10% — the Makefile bench target runs this against the committed baseline.
// Each report records calib_s, the time of a fixed integer loop taken
// before and after the benchmarks; when both reports carry it, -compare
// divides each side's ns/op by its own calib_s, so a host that has slowed
// down since the baseline was taken does not read as a regression.
//
// With -pairs the command skips benchmarking and instead runs the dynamic
// instruction-pair profile pass over the paper workloads (clean and
// NaiveAll-instrumented). The pair frequencies only propose superinstruction
// candidates: a fusion rule stays in the interpreter only if counting the
// xinstrs the workloads' translations form and dispatch shows that they
// form it (see DESIGN.md §7).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/machine"
	"stridepf/internal/workloads"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON document written to -o and the JSONL record appended
// to -history.
type Report struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu,omitempty"`
	Package   string `json:"package"`
	Command   string `json:"command"`
	// CalibS is the mean time of calibrate before and after the benchmarks.
	CalibS  float64  `json:"calib_s,omitempty"`
	Results []Result `json:"results"`
}

// regressionLimit is the relative ns/op increase -compare tolerates before
// failing the run.
const regressionLimit = 0.10

func main() {
	var (
		outFlag     = flag.String("o", "BENCH_interp.json", "output JSON file (- for stdout)")
		benchFlag   = flag.String("bench", ".", "benchmark regexp passed to go test -bench")
		timeFlag    = flag.String("benchtime", "2s", "value passed to go test -benchtime")
		pkgFlag     = flag.String("pkg", "./internal/machine/", "package to benchmark")
		historyFlag = flag.String("history", "BENCH_history.jsonl", "history file to append each report to (empty disables)")
		compareFlag = flag.String("compare", "", "previous report to diff against; exits nonzero on >10% ns/op regression")
		pairsFlag   = flag.Bool("pairs", false, "run the dynamic instruction-pair profile over the workloads instead of benchmarking")
	)
	flag.Parse()

	if *pairsFlag {
		if err := runPairProfile(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	args := []string{"test", "-run", "^$", "-bench", *benchFlag, "-benchtime", *timeFlag, *pkgFlag}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	calBefore := calibrate()
	out, err := cmd.Output()
	if err != nil {
		fatal(fmt.Errorf("go %s: %w", strings.Join(args, " "), err))
	}
	calAfter := calibrate()

	rep := Report{
		Date:      time.Now().UTC().Format("2006-01-02T15:04:05Z"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Package:   *pkgFlag,
		Command:   "go " + strings.Join(args, " "),
		CalibS:    (calBefore + calAfter) / 2,
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.CPU = cpu
			continue
		}
		if r, ok := parseBenchLine(line); ok {
			rep.Results = append(rep.Results, r)
		}
	}
	if len(rep.Results) == 0 {
		fatal(fmt.Errorf("no benchmark results matched %q in %s", *benchFlag, *pkgFlag))
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *outFlag == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*outFlag, enc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("interpbench: wrote %d result(s) to %s\n", len(rep.Results), *outFlag)
	}

	if *historyFlag != "" {
		if err := appendHistory(*historyFlag, &rep); err != nil {
			fatal(err)
		}
	}

	if *compareFlag != "" {
		regressed, err := compareReports(os.Stdout, *compareFlag, &rep)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	}
}

// appendHistory appends rep as one compact JSON line.
func appendHistory(path string, rep *Report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return err
	}
	fmt.Printf("interpbench: appended to %s\n", path)
	return nil
}

// calSink keeps calibrate's result alive.
var calSink uint64

// calibrate times a fixed integer loop that shares no code with the
// interpreter. It is a copy of e2ebench's calibrate (e2ebench/run.go, in a
// module of its own), which slows with the host: ns/op divided by its time
// keeps more of the benchmark's own cost and less of the host's drift.
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

// compareReports prints per-benchmark deltas between the old report at path
// and the new one, and reports whether any benchmark regressed by more than
// regressionLimit in ns/op. When both reports carry calib_s, each side's
// ns/op is divided by its own calib_s first. Benchmarks present on only one
// side are noted but never fail the comparison.
func compareReports(w *os.File, path string, cur *Report) (regressed bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var old Report
	if err := json.Unmarshal(raw, &old); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	olds := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		olds[r.Name] = r
	}
	fmt.Fprintf(w, "interpbench: comparing against %s (%s)\n", path, old.Date)
	// scale converts the new ns/op to the baseline host's speed.
	scale := 1.0
	if old.CalibS > 0 && cur.CalibS > 0 {
		scale = old.CalibS / cur.CalibS
		fmt.Fprintf(w, "interpbench: deltas divide ns/op by calib_s (%.3f s then, %.3f s now)\n", old.CalibS, cur.CalibS)
	}
	for _, r := range cur.Results {
		o, ok := olds[r.Name]
		if !ok {
			fmt.Fprintf(w, "  %-34s %10.2f ns/op  (new benchmark)\n", r.Name, r.NsPerOp)
			continue
		}
		delete(olds, r.Name)
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = (r.NsPerOp*scale - o.NsPerOp) / o.NsPerOp
		}
		verdict := ""
		if delta > regressionLimit {
			verdict = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "  %-34s %10.2f -> %10.2f ns/op  (%+.1f%%)%s\n",
			r.Name, o.NsPerOp, r.NsPerOp, 100*delta, verdict)
		if is, ok := r.Metrics["instrs/s"]; ok {
			if was, ok := o.Metrics["instrs/s"]; ok && was > 0 {
				fmt.Fprintf(w, "  %-34s %10.0f -> %10.0f instrs/s  (%.2fx)\n",
					"", was, is, is/was)
			}
		}
	}
	for name := range olds {
		fmt.Fprintf(w, "  %-34s (dropped from suite)\n", name)
	}
	if regressed {
		fmt.Fprintf(w, "interpbench: ns/op regression beyond %.0f%% detected\n", 100*regressionLimit)
	}
	return regressed, nil
}

// runPairProfile executes every registered workload on its train input —
// clean and NaiveAll-instrumented — under the machine's dynamic
// instruction-pair profiler and prints the top pairs: the profile pass that
// proposes the interpreter's superinstruction candidates.
func runPairProfile(w *os.File) error {
	pp := machine.NewPairProfile()
	for _, wl := range workloads.All() {
		prog := wl.Program()
		in := wl.Train()

		if _, err := core.Execute(prog, wl, in, machine.Config{PairProfile: pp}); err != nil {
			return err
		}
		res, err := instrument.Instrument(prog, instrument.Options{Method: instrument.NaiveAll})
		if err != nil {
			return fmt.Errorf("%s: instrument: %w", wl.Name(), err)
		}
		if _, err := core.Execute(res.Prog, wl, in, machine.Config{PairProfile: pp, Hooks: res.Hooks()}); err != nil {
			return fmt.Errorf("instrumented: %w", err)
		}
	}

	fmt.Fprintf(w, "dynamic instruction pairs over %d workloads (clean + NaiveAll), %d instrs, %d intra-block pairs\n",
		len(workloads.All()), pp.Total(), pp.Pairs())
	for i, pc := range pp.Top(15) {
		fmt.Fprintf(w, "  %2d. %-12s -> %-12s %12d  (%.2f%% of pairs)\n",
			i+1, pc.Prev, pc.Next, pc.Count, 100*float64(pc.Count)/float64(pp.Pairs()))
	}
	return nil
}

// parseBenchLine parses a standard `go test -bench` result line:
//
//	BenchmarkName-8   12345   98.7 ns/op   24.00 instrs/op   2.1e+08 instrs/s   0 B/op   0 allocs/op
//
// Every value/unit pair after the iteration count becomes a metric; ns/op is
// also lifted into its own field.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{
		Name:       strings.SplitN(fields[0], "-", 2)[0],
		Iterations: iters,
		Metrics:    make(map[string]float64),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = val
		}
		r.Metrics[unit] = val
	}
	if r.NsPerOp == 0 && len(r.Metrics) == 0 {
		return Result{}, false
	}
	return r, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "interpbench:", err)
	os.Exit(1)
}
