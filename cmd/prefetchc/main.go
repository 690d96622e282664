// Command prefetchc is the profile-feedback "compiler" driver: it reads a
// combined profile produced by cmd/strideprof, classifies every profiled
// load (Figure 5), inserts prefetching code, and optionally measures the
// speedup on an input.
//
// Usage:
//
//	prefetchc -workload 181.mcf -profile profile.json [-run ref]
//	          [-heuristic lb|trip|fixed] [-wsst] [-report] [-dump-ir]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"stridepf/internal/core"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
	"stridepf/internal/workloads"
)

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("prefetchc", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		wl        = fs.String("workload", "", "benchmark name")
		profF     = fs.String("profile", "profile.json", "combined profile (from strideprof)")
		runInput  = fs.String("run", "", "measure speedup on this input: train or ref")
		heuristic = fs.String("heuristic", "lb", "prefetch distance heuristic: lb (latency/body), trip, fixed")
		wsst      = fs.Bool("wsst", false, "enable conditional prefetching for weak-single-stride loads")
		report    = fs.Bool("report", false, "print per-load classification decisions")
		dumpIR    = fs.Bool("dump-ir", false, "print the prefetched IR")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	w := workloads.Get(*wl)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *wl)
	}
	prof, err := profile.Load(*profF)
	if err != nil {
		return err
	}
	opts := prefetch.Options{EnableWSST: *wsst}
	switch *heuristic {
	case "lb":
		opts.Heuristic = prefetch.LatencyOverBody
	case "trip":
		opts.Heuristic = prefetch.TripBased
	case "fixed":
		opts.Heuristic = prefetch.FixedDistance
	default:
		return fmt.Errorf("unknown heuristic %q", *heuristic)
	}

	fb, err := prefetch.Apply(w.Program(), prof, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %d loads considered, %d prefetches inserted\n",
		w.Name(), len(fb.Decisions), fb.Inserted)
	if *report {
		for _, d := range fb.Decisions {
			where := "out-loop"
			if d.InLoop {
				where = "in-loop"
			}
			fmt.Fprintf(out, "  %s#%d: %-5s %-8s freq=%d trip=%.0f stride=%d K=%d lines=%d %s\n",
				d.Key.Func, d.Key.ID, d.Class, where, d.Freq, d.Trip, d.Stride,
				d.K, d.CoverLines, d.FilteredBy)
		}
	}
	if *dumpIR {
		fmt.Fprintln(out, ir.PrintProgram(fb.Prog))
	}

	if *runInput != "" {
		var in core.Input
		switch *runInput {
		case "train":
			in = w.Train()
		case "ref":
			in = w.Ref()
		default:
			return fmt.Errorf("unknown input %q", *runInput)
		}
		base, err := core.Execute(w.Program(), w, in, machine.Config{})
		if err != nil {
			return err
		}
		pf, err := core.Execute(fb.Prog, w, in, machine.Config{})
		if err != nil {
			return err
		}
		if base.Ret != pf.Ret {
			return fmt.Errorf("prefetched binary diverged: %d vs %d", pf.Ret, base.Ret)
		}
		fmt.Fprintf(out, "base:       %12d cycles (%d demand-miss cycles)\n",
			base.Stats.Cycles, base.DemandMissCycles)
		fmt.Fprintf(out, "prefetched: %12d cycles (%d demand-miss cycles, %d useful / %d late / %d dropped prefetches)\n",
			pf.Stats.Cycles, pf.DemandMissCycles, pf.PrefetchUseful, pf.PrefetchLate, pf.PrefetchDrops)
		fmt.Fprintf(out, "speedup:    %.3fx\n", float64(base.Stats.Cycles)/float64(pf.Stats.Cycles))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "prefetchc:", err)
		}
		os.Exit(1)
	}
}
