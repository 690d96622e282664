// Command irrun executes an IR listing (the textual form produced by the
// -dump-ir flags of the other tools, or written by hand) on the simulated
// machine, with optional instruction tracing and cache statistics —
// handy for debugging instrumentation and prefetch sequences in isolation.
//
// Usage:
//
//	irrun [-trace] [-stats] [-max-steps N] prog.ir
//	irrun -print prog.ir        # parse and pretty-print only
//
// The program must define a parameterless "main". Initial memory can be
// seeded with -set addr=value flags (decimal or 0x-hex), e.g.
//
//	irrun -set 0x2000=12345 prog.ir
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/opt"
)

type setFlags []string

func (s *setFlags) String() string     { return strings.Join(*s, ",") }
func (s *setFlags) Set(v string) error { *s = append(*s, v); return nil }

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("irrun", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		trace    = fs.Bool("trace", false, "print each executed instruction")
		stats    = fs.Bool("stats", false, "print execution and cache statistics")
		printIR  = fs.Bool("print", false, "parse and pretty-print, do not execute")
		dot      = fs.Bool("dot", false, "emit the CFG in Graphviz dot format, do not execute")
		optimize = fs.Bool("O", false, "optimise (fold/cse/dce/licm) before running")
		maxSteps = fs.Uint64("max-steps", 100_000_000, "instruction budget")
		sets     setFlags
	)
	fs.Var(&sets, "set", "initial memory word, addr=value (repeatable)")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	if fs.NArg() != 1 {
		return fmt.Errorf("usage: irrun [flags] prog.ir")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := ir.ParseProgram(string(src))
	if err != nil {
		return err
	}
	if err := ir.VerifyProgram(prog); err != nil {
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
	if *printIR {
		fmt.Fprint(out, ir.PrintProgram(prog))
		return nil
	}
	if *dot {
		fmt.Fprint(out, ir.DotProgram(prog))
		return nil
	}

	cfg := machine.Config{MaxSteps: *maxSteps}
	if *trace {
		cfg.Trace = out
	}
	m, err := machine.New(prog, cfg)
	if err != nil {
		return err
	}
	for _, s := range sets {
		i := strings.Index(s, "=")
		if i < 0 {
			return fmt.Errorf("bad -set %q (want addr=value)", s)
		}
		addr, err := parseNum(s[:i])
		if err != nil {
			return err
		}
		val, err := parseNum(s[i+1:])
		if err != nil {
			return err
		}
		m.Mem.Store(uint64(addr), val)
	}

	ret, err := m.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "return value: %d\n", ret)
	if *stats {
		st := m.Stats()
		fmt.Fprintf(out, "cycles:      %d\n", st.Cycles)
		fmt.Fprintf(out, "instrs:      %d\n", st.Instrs)
		fmt.Fprintf(out, "loads:       %d\n", st.LoadRefs)
		fmt.Fprintf(out, "stores:      %d\n", st.StoreRefs)
		fmt.Fprintf(out, "prefetches:  %d (useful %d, late %d, dropped %d)\n",
			st.PrefetchRefs, m.Hier.PrefetchUseful, m.Hier.PrefetchLate, m.Hier.PrefetchDrops)
		for i := 0; i < 3; i++ {
			l := m.Hier.Level(i)
			fmt.Fprintf(out, "%-4s hits %d misses %d\n", l.Config().Name, l.Hits, l.Misses)
		}
	}
	return nil
}

func parseNum(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err := strconv.ParseUint(s[2:], 16, 64)
		return int64(v), err
	}
	return strconv.ParseInt(s, 10, 64)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "irrun:", err)
		}
		os.Exit(1)
	}
}
