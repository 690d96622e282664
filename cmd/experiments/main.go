// Command experiments regenerates the paper's evaluation figures (15-25)
// as text tables, plus the repo's own prefetcher-arena cross product
// (-figure arena).
//
// Usage:
//
//	experiments [-workloads 181.mcf,197.parser] [-figure all|15|16|...|25|arena]
//	            [-j N] [-o out.txt] [-selfcheck] [-hwpf scheme]
//	            [-metrics metrics.json]
//	            [-trace trace.jsonl] [-trace-sample N] [-trace-max N]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -hwpf attaches a hardware prefetcher of the named scheme (rpt,
// baer-chen, tracker, multi-stride; see internal/hwpf) to every simulated
// machine, so any paper figure can be regenerated "with hardware
// prefetching on". The default is no hardware prefetcher, which keeps the
// paper figures byte-identical to the software-only harness. -figure arena
// ignores -hwpf and sweeps every registered scheme against a no-prefetcher
// baseline across the arena cache configurations (EXPERIMENTS.md,
// "Prefetcher arena").
//
// -selfcheck runs every simulation with the naive shadow models of the
// cache hierarchy and flat memory attached (see internal/simcheck and
// DESIGN.md): each access is cross-checked event-by-event, and the first
// divergence aborts the run with an event-trace report.
//
// -metrics writes one prefetch-effectiveness report per prefetched
// measurement cell — accuracy, coverage and timeliness per prefetch class
// (SSST/PMST/WSST/indirect/hwpf), with every issued prefetch reconciled
// into exactly one outcome (useful, late, evicted-unused, resident-unused,
// still-in-flight) plus redundant/dropped issue-side counts and harmful
// evictions — as indented JSON (see internal/obs and EXPERIMENTS.md).
// -trace streams the underlying per-event JSONL, optionally sampled
// (-trace-sample) and bounded (-trace-max). Both are passive: tables are
// byte-identical with and without them.
//
// Without flags it runs every figure on all twelve benchmarks. The
// independent (workload, method, input) simulation cells are precomputed on
// a worker pool (-j workers, default GOMAXPROCS); the tables are then
// assembled serially from the memoised cells, so the output is
// byte-for-byte identical to a serial run (-j 1).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"stridepf/internal/experiments"
	"stridepf/internal/hwpf"
	"stridepf/internal/obs"
)

func main() {
	var (
		workloadsFlag = flag.String("workloads", "", "comma-separated benchmark names (default: all)")
		figureFlag    = flag.String("figure", "all", "figure to regenerate: all, 15..25, arena")
		hwpfFlag      = flag.String("hwpf", "", "attach a hardware prefetcher to every simulation: "+strings.Join(hwpf.Schemes(), ", ")+" (default: none)")
		outFlag       = flag.String("o", "", "output file (default: stdout)")
		csvFlag       = flag.Bool("csv", false, "emit CSV instead of aligned text (single figures only)")
		jFlag         = flag.Int("j", 0, "number of parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
		selfCheck     = flag.Bool("selfcheck", false, "run naive shadow models of cache and memory in lockstep with every simulation (slower; fails on the first divergence)")
		metricsFlag   = flag.String("metrics", "", "write per-cell prefetch-effectiveness metrics (accuracy, coverage, timeliness per prefetch class) as JSON to this file")
		traceFlag     = flag.String("trace", "", "write the prefetch-effectiveness event stream as JSON lines to this file")
		traceSample   = flag.Int("trace-sample", 1, "keep one of every N trace events")
		traceMax      = flag.Int("trace-max", 1<<20, "stop writing trace events after N lines (further events are counted, not written)")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	var out io.Writer = os.Stdout
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	cfg := experiments.Config{Jobs: *jFlag}
	cfg.Machine.SelfCheck = *selfCheck
	if *workloadsFlag != "" {
		cfg.Workloads = strings.Split(*workloadsFlag, ",")
	}
	if *hwpfFlag != "" {
		if _, err := hwpf.NewScheme(*hwpfFlag, hwpf.Config{}); err != nil {
			fatal(err)
		}
		cfg.HWPF = *hwpfFlag
	}

	// finish flushes the observability sinks; every successful exit path
	// calls it after the figures are assembled.
	finish := func() {}
	if *metricsFlag != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriter(f)
		cfg.Trace = obs.NewTrace(bw, obs.TraceConfig{
			SampleEvery: *traceSample,
			MaxEvents:   *traceMax,
		})
		finish = func() {
			seen, written, dropped := cfg.Trace.Stats()
			if err := bw.Flush(); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "experiments: trace %s: %d events seen, %d written, %d dropped at the bound\n",
				*traceFlag, seen, written, dropped)
		}
	}
	if *metricsFlag != "" {
		traceDone := finish
		finish = func() {
			f, err := os.Create(*metricsFlag)
			if err != nil {
				fatal(err)
			}
			if err := cfg.Metrics.WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			traceDone()
		}
	}

	ctx := context.Background()
	if *figureFlag == "all" {
		if *csvFlag {
			fatal(fmt.Errorf("-csv requires a single -figure"))
		}
		if err := experiments.RunAll(ctx, out, cfg); err != nil {
			fatal(err)
		}
		finish()
		return
	}

	s := experiments.NewSession(cfg)
	known := false
	for _, name := range experiments.FigureNames() {
		known = known || name == *figureFlag
	}
	for _, name := range experiments.ExtraFigureNames() {
		known = known || name == *figureFlag
	}
	if !known {
		fatal(fmt.Errorf("unknown figure %q (want all, 15..25, arena or paths)", *figureFlag))
	}
	if n := cfg.Jobs; n != 1 {
		s.Warm(ctx, n, *figureFlag)
	}
	text, err := s.FigureText(ctx, *figureFlag, *csvFlag)
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(out, text)
	finish()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
