// Command strideprof instruments a benchmark with one of the paper's
// profiling methods, executes the instrumented program on the selected
// input, and writes the combined edge + stride profile as JSON.
//
// Usage:
//
//	strideprof -workload 181.mcf [-method sample-edge-check] [-input train]
//	           [-o profile.json] [-dump-ir] [-v]
//	           [-push http://host:8471] [-push-config name] [-push-attempts N]
//
// The profile file feeds cmd/prefetchc. With -push the shard is also
// uploaded to a strided daemon through the resilient client (retries with
// backoff, idempotency-keyed so a retried upload never double-merges).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"stridepf/internal/client"
	"stridepf/internal/core"
	"stridepf/internal/experiments"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/workloads"
)

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("strideprof", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		wl     = fs.String("workload", "", "benchmark name (see -list)")
		list   = fs.Bool("list", false, "list available benchmarks")
		method = fs.String("method", "edge-check",
			"profiling method: "+methodUsage())
		input  = fs.String("input", "train", "input data set: train or ref")
		outF   = fs.String("o", "profile.json", "profile output path")
		dumpIR = fs.Bool("dump-ir", false, "print the instrumented IR")
		verb   = fs.Bool("v", false, "print profiling statistics")

		push         = fs.String("push", "", "also upload the shard to a strided daemon at this base URL")
		pushConfig   = fs.String("push-config", "", "config name for the upload (default: the -method name)")
		pushAttempts = fs.Int("push-attempts", 8, "max upload attempts before giving up")
		pushTimeout  = fs.Duration("push-timeout", 2*time.Minute, "overall budget for the upload")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	if *list {
		for _, name := range workloads.Names() {
			w := workloads.Get(name)
			fmt.Fprintf(out, "%-13s %s\n", name, w.Description())
		}
		return nil
	}
	w := workloads.Get(*wl)
	if w == nil {
		return fmt.Errorf("unknown workload %q (use -list)", *wl)
	}
	opts, err := methodOptions(*method)
	if err != nil {
		return err
	}
	var in core.Input
	switch *input {
	case "train":
		in = w.Train()
	case "ref":
		in = w.Ref()
	default:
		return fmt.Errorf("unknown input %q (want train or ref)", *input)
	}

	pr, err := core.ProfilePass(w, in, opts, machine.Config{})
	if err != nil {
		return err
	}
	if *dumpIR {
		fmt.Fprintln(out, ir.PrintProgram(pr.Instr.Prog))
	}
	if err := pr.Profiles.Save(*outF); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d edges, %d stride summaries\n",
		*outF, pr.Profiles.Edge.Len(), pr.Profiles.Stride.Len())
	if *verb {
		fmt.Fprintf(out, "instrumented run: %d cycles, %d instructions\n",
			pr.Stats.Stats.Cycles, pr.Stats.Stats.Instrs)
		fmt.Fprintf(out, "program load refs: %d (%.1f%% in-loop)\n", pr.ProgramLoadRefs,
			100*float64(pr.InLoopLoadRefs)/float64(pr.ProgramLoadRefs))
		if pr.ProgramLoadRefs > 0 {
			fmt.Fprintf(out, "strideProf processed: %d (%.1f%%), LFU: %d (%.1f%%)\n",
				pr.ProcessedRefs, 100*float64(pr.ProcessedRefs)/float64(pr.ProgramLoadRefs),
				pr.LFUCalls, 100*float64(pr.LFUCalls)/float64(pr.ProgramLoadRefs))
		}
	}

	if *push != "" {
		cname := *pushConfig
		if cname == "" {
			cname = *method
		}
		cl, err := client.New(client.Config{BaseURL: *push, MaxAttempts: *pushAttempts})
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), *pushTimeout)
		defer cancel()
		info, err := cl.UploadShard(ctx, *wl, cname, pr.Profiles)
		if err != nil {
			return fmt.Errorf("push to %s: %w", *push, err)
		}
		fmt.Fprintf(out, "pushed %s/%s to %s: version %d (%d shards)\n",
			*wl, cname, *push, info.Version, info.Shards)
	}
	return nil
}

// methodUsage derives the flag help from the instrument registry and the
// paper's sampled variants (experiments.PaperMethods), so a new scheme
// shows up here without editing this file.
func methodUsage() string {
	var names []string
	for _, m := range instrument.Methods() {
		if m == instrument.TwoPass {
			continue // needs a prior edge profile this CLI cannot supply
		}
		names = append(names, m.String())
	}
	for _, pm := range experiments.PaperMethods() {
		if strings.HasPrefix(pm.Name, "sample-") {
			names = append(names, pm.Name)
		}
	}
	return strings.Join(names, ", ")
}

// methodOptions resolves a method name: a paper method (the sampled
// variants included) as the figures run it, else an instrument method.
func methodOptions(name string) (instrument.Options, error) {
	for _, pm := range experiments.PaperMethods() {
		if pm.Name == name {
			return pm.Opts, nil
		}
	}
	m, ok := instrument.ParseMethod(name)
	if !ok {
		return instrument.Options{}, fmt.Errorf("unknown method %q (want one of %s)", name, methodUsage())
	}
	if m == instrument.TwoPass {
		return instrument.Options{}, fmt.Errorf("method %q needs a first-pass edge profile; use the experiments driver", name)
	}
	return instrument.Options{Method: m}, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "strideprof:", err)
		}
		os.Exit(1)
	}
}
