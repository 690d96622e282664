package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// deadline bounds a run of the given number of workloads, set-up probes
// and all, so a stuck repetition cannot run on forever; children are
// killed at it. A workload measures for at most 1.15 times its budget;
// the slack covers its set-up processes and a repetition that runs long.
func deadline(seconds, workloads int) time.Duration {
	const slack = 60 * time.Second
	return time.Duration(workloads) * (time.Duration(1.15*float64(seconds)*float64(time.Second)) + slack)
}

// repoRoot is where the benchmark runs: the repository root, whose
// figures_output.txt and BENCHMARK.json it reads.
const repoRoot = "."

type options struct {
	workloads []string
	seed      uint64
	seconds   int
	trace     bool
	traceDir  string
	out       string
}

func main() {
	var (
		o         options
		workloadF = flag.String("workload", "all", "comma-separated workloads to run, or all: paper-figures, hwpf-arena, strided-mix")
		traceF    = flag.Int("trace", 0, "1 runs a traced repetition and reports the per-layer metrics instead of the end-to-end ones")
		compareF  = flag.String("compare", "", "compare the run records in this file (the parent) against those in the file named as argument")
		childF    = flag.Bool("child", false, "internal: run one workload in this process")
		setupOnly = flag.Bool("setup-only", false, "internal: with -child, stop after set-up")
	)
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "measurement budget per run, in seconds")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes <workload>.spans.jsonl and <workload>.cpu.pprof")
	flag.StringVar(&o.out, "o", "", "append one JSON run record per workload to this file")
	flag.Parse()
	o.trace = *traceF == 1
	o.workloads = strings.Split(*workloadF, ",")
	if *workloadF == "all" {
		o.workloads = nil
		for _, w := range workloadTable {
			o.workloads = append(o.workloads, w.name)
		}
	}

	switch {
	case *compareF != "":
		if flag.NArg() != 1 {
			fatal(errors.New("-compare OLD needs the NEW run-record file as its argument"))
		}
		worse, err := compare(os.Stdout, repoRoot, *compareF, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *childF:
		if err := runChild(o, *setupOnly); err != nil {
			fatal(err)
		}
	default:
		ok, err := runParent(o)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// runChild sets one workload up, then (unless setupOnly) measures it, and
// prints a childReport as its last output line.
func runChild(o options, setupOnly bool) error {
	if len(o.workloads) != 1 {
		return errors.New("-child runs exactly one workload")
	}
	w, ok := findWorkload(o.workloads[0])
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workloads[0])
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline(o.seconds, 1))
	defer cancel()
	r, err := w.setup(o.seed)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	ready := time.Now().UnixNano()
	rep := childReport{}
	if !setupOnly {
		traceDir := ""
		if o.trace {
			traceDir = o.traceDir
		}
		if rep, err = measure(ctx, w.name, r, float64(o.seconds), traceDir); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	rep.ReadyNS = ready
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envInfo records the conditions of a run.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
	Seed       uint64 `json:"seed"`
}

// runRecord is one workload's line in the -o file, the input of -compare.
type runRecord struct {
	Date     string          `json:"date"`
	Workload string          `json:"workload"`
	Seconds  int             `json:"seconds"`
	Trace    bool            `json:"trace"`
	Env      envInfo         `json:"env"`
	Result   result          `json:"result"`
	SetupS   []float64       `json:"setup_s,omitempty"`
	JobS     []float64       `json:"job_s,omitempty"`
	CalS     []float64       `json:"cal_s,omitempty"`
	Tails    map[string]tail `json:"tails,omitempty"`
	Failures []string        `json:"failures,omitempty"`
	Layers   *breakdown      `json:"breakdown,omitempty"`
}

// runParent runs every selected workload in child processes, prints one
// "workload metric value unit" line per metric, and ends with the result
// line. It reports whether every oracle passed.
func runParent(o options) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline(o.seconds, len(o.workloads)))
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	env := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), LoadStart: loadavg(), Seed: o.seed,
	}
	var records []runRecord
	for _, name := range o.workloads {
		w, ok := findWorkload(name)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", name)
		}
		rec, err := runWorkload(ctx, self, o, w)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		records = append(records, rec)
	}
	env.LoadEnd = loadavg()
	envJSON, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", envJSON)

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for i := range records {
		rec := &records[i]
		rec.Env = env
		for _, f := range rec.Failures {
			fmt.Printf("# %s FAILED: %s\n", rec.Workload, f)
		}
		for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
			mv, ok := rec.Result.Metrics[m.Name]
			if !ok {
				continue
			}
			fmt.Printf("%s %s %s %s\n", rec.Workload, m.Name, strconv.FormatFloat(mv.Value, 'g', -1, 64), mv.Unit)
			if t, ok := rec.Tails[m.Name]; ok {
				fmt.Printf("# %s %s is p%g of %d samples\n", rec.Workload, m.Name, t.Pct, t.N)
			}
			key := m.Name
			if len(records) > 1 {
				key = rec.Workload + "." + m.Name
			}
			final.Metrics[key] = mv
		}
		final.Correct = final.Correct && rec.Result.Correct
		final.Attempted += rec.Result.Attempted
		final.Failed += rec.Result.Failed
	}
	if o.out != "" {
		if err := appendRecords(o.out, records); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return final.Correct, nil
}

// runWorkload measures one workload: its set-up time in fresh processes,
// then one measuring process.
func runWorkload(ctx context.Context, self string, o options, w workload) (runRecord, error) {
	rec := runRecord{
		Date: time.Now().UTC().Format(time.RFC3339), Workload: w.name, Seconds: o.seconds, Trace: o.trace,
	}
	probes := w.setups - 1
	if o.trace {
		probes = 0 // a traced run reports no set-up time
	}
	for i := 0; i < probes; i++ {
		_, setup, _, err := spawn(ctx, self, o, w.name, true)
		if err != nil {
			return rec, err
		}
		rec.SetupS = append(rec.SetupS, setup)
	}
	cr, setup, rssKB, err := spawn(ctx, self, o, w.name, false)
	if err != nil {
		return rec, err
	}
	rec.SetupS = append(rec.SetupS, setup)
	rec.JobS, rec.CalS, rec.Tails, rec.Failures, rec.Layers = cr.JobS, cr.CalS, cr.Tails, cr.Failures, cr.Breakdown
	metrics := cr.Metrics
	if !o.trace {
		metrics = endToEndMetrics(cr.JobS, cr.CalS, rec.SetupS, rssKB)
	}
	rec.Result = result{
		Correct: cr.Failed == 0, Attempted: cr.Attempted, Failed: cr.Failed,
		Metrics: map[string]metricValue{},
	}
	for name, v := range metrics {
		rec.Result.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	return rec, nil
}

// endToEndMetrics assembles the end-to-end metrics of an untraced run from
// its repetitions' job times and the calibration times around them, its
// set-up times and the measuring process's peak RSS. Both times are medians
// taken at the reference machine's speed: scaled by calRefS over the run's
// median calibration time.
func endToEndMetrics(jobS, calS, setupS []float64, rssKB int64) map[string]float64 {
	speed := calRefS / median(calS)
	return map[string]float64{
		"setup_s":     median(setupS) * speed,
		"job_norm_s":  median(jobS) * speed,
		"peak_rss_mb": float64(rssKB) / 1024,
	}
}

// spawn runs this program as a child on one workload and returns its
// report, its set-up time (process start to ready) and its peak RSS.
func spawn(ctx context.Context, self string, o options, name string, setupOnly bool) (childReport, float64, int64, error) {
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace-dir", o.traceDir}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	// The child must not outlive a parent killed by its caller.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return childReport{}, 0, 0, fmt.Errorf("child: %w", err)
	}
	var rep childReport
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return rep, 0, 0, fmt.Errorf("child report: %w", err)
	}
	var rssKB int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssKB = ru.Maxrss
	}
	return rep, float64(rep.ReadyNS-start.UnixNano()) / 1e9, rssKB, nil
}

// appendRecords appends one JSON line per record.
func appendRecords(path string, records []runRecord) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func loadavg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(raw))
}
