// Command mcc compiles mc source (a minimal C-like language, see package
// internal/mc) to IR and optionally runs it — including a one-command
// profile-guided-prefetching mode that performs the paper's whole pipeline
// on a self-contained program:
//
//	mcc -run prog.mc              # compile and execute
//	mcc -O -stats prog.mc         # optimise, execute, print statistics
//	mcc -emit-ir prog.mc          # print the IR listing
//	mcc -pgo prog.mc              # instrument -> profile -> prefetch -> compare
//
// mc programs build their own data structures (via alloc), so the PGO mode
// profiles and measures the same execution — a convenient way to
// experiment with the stride profiler on hand-written kernels such as the
// paper's Figure 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/mc"
	"stridepf/internal/opt"
	"stridepf/internal/prefetch"
)

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("mcc", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		emitIR   = fs.Bool("emit-ir", false, "print the compiled IR")
		optimize = fs.Bool("O", false, "run the optimiser")
		runIt    = fs.Bool("run", false, "execute the program")
		stats    = fs.Bool("stats", false, "print execution statistics (implies -run)")
		pgo      = fs.Bool("pgo", false, "run the full profile-guided prefetching pipeline")
		method   = fs.String("method", "edge-check", "profiling method for -pgo: edge-check, naive-loop, naive-all")
		indirect = fs.Bool("indirect", false, "-pgo: enable dependent-load (indirect) prefetching")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mcc [flags] prog.mc")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := mc.Compile(string(src))
	if err != nil {
		return err
	}
	if *optimize {
		optimised, st, err := opt.Run(prog, opt.Options{})
		if err != nil {
			return err
		}
		prog = optimised
		fmt.Fprintf(os.Stderr, "opt: folded %d, cse %d, removed %d, hoisted %d\n",
			st.Folded, st.CSE, st.Removed, st.Hoisted)
	}
	if *emitIR {
		fmt.Fprint(out, ir.PrintProgram(prog))
	}
	if *pgo {
		return runPGO(prog, *method, *indirect, out)
	}
	if *runIt || *stats {
		m, err := machine.New(prog, machine.Config{})
		if err != nil {
			return err
		}
		ret, err := m.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "return value: %d\n", ret)
		if *stats {
			st := m.Stats()
			fmt.Fprintf(out, "cycles: %d, instrs: %d, loads: %d, stores: %d\n",
				st.Cycles, st.Instrs, st.LoadRefs, st.StoreRefs)
		}
	}
	return nil
}

// mcWorkload is a self-contained mc program as a core.Workload: it builds
// its own data (via alloc), so Setup writes nothing and both inputs are
// empty, and the PGO mode profiles and measures the same execution.
type mcWorkload struct{ prog *ir.Program }

func (mcWorkload) Name() string                       { return "mc" }
func (mcWorkload) Description() string                { return "mc program" }
func (w mcWorkload) Program() *ir.Program             { return w.prog }
func (mcWorkload) Setup(*machine.Machine, core.Input) {}
func (mcWorkload) Train() core.Input                  { return core.Input{} }
func (mcWorkload) Ref() core.Input                    { return core.Input{} }

// runPGO performs instrument -> profile -> feedback -> measure on a
// self-contained program.
func runPGO(prog *ir.Program, method string, indirect bool, out io.Writer) error {
	m, ok := instrument.ParseMethod(method)
	if !ok || m != instrument.EdgeCheck && m != instrument.NaiveLoop && m != instrument.NaiveAll {
		return fmt.Errorf("unknown method %q", method)
	}
	w := mcWorkload{prog}
	pr, err := core.ProfilePass(w, w.Train(), instrument.Options{Method: m}, machine.Config{})
	if err != nil {
		return err
	}
	prof := pr.Profiles
	fmt.Fprintf(out, "profiled %d loads\n", prof.Stride.Len())
	for _, s := range prof.Stride.Summaries() {
		if s.TotalStrides == 0 || len(s.TopStrides) == 0 {
			continue
		}
		fmt.Fprintf(out, "  %s#%d: top stride %d (%.0f%% of %d samples), zero-diff %.0f%%\n",
			s.Key.Func, s.Key.ID, s.TopStrides[0].Value,
			100*float64(s.TopStrides[0].Freq)/float64(s.TotalStrides),
			s.TotalStrides,
			100*float64(s.ZeroDiffs)/float64(s.TotalStrides))
	}

	sp, err := core.MeasureSpeedup(w, w.Ref(), prof, prefetch.Options{EnableIndirect: indirect}, machine.Config{})
	if err != nil {
		return err
	}
	if n := sp.Feedback.IndirectInserted; n > 0 {
		fmt.Fprintf(out, "%d indirect (dependent-load) prefetches inserted\n", n)
	}
	for _, d := range sp.Feedback.Decisions {
		if d.K > 0 {
			fmt.Fprintf(out, "prefetching %s#%d: %s stride=%d K=%d\n",
				d.Key.Func, d.Key.ID, d.Class, d.Stride, d.K)
		}
	}
	fmt.Fprintf(out, "base:       %d cycles\n", sp.Base.Stats.Cycles)
	fmt.Fprintf(out, "prefetched: %d cycles\n", sp.Prefetched.Stats.Cycles)
	fmt.Fprintf(out, "speedup:    %.3fx\n", sp.Speedup)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "mcc:", err)
		}
		os.Exit(1)
	}
}
