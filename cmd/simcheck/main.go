// Command simcheck drives the correctness-tooling subsystem of package
// internal/simcheck: it runs the shadow-model, differential and metamorphic
// checks over ranges of deterministic seeds, and on a failure shrinks the
// (seed, generator-config) pair to a minimal reproducer and prints the
// replay command line and the divergence event trace.
//
// Usage:
//
//	simcheck [-prop all|lockstep|neutrality|metrics|fused|hwpfneutral|lanes|sampling|merge|lfu|converge|pathtruth] [-n 20] [-seed 1]
//	         [-funcs N] [-blocks N] [-trip N] [-depth N] [-no-reduce]
//
// Exit status is 1 when any property fails, so the command slots into CI
// (make check-deep runs it with a small seed budget).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"stridepf/internal/irgen"
	"stridepf/internal/simcheck"
)

// property couples a named check with whether its failures are reducible
// program-generator failures (seed+config) or pure seed failures.
type property struct {
	name string
	prop simcheck.Property
	// genBased marks properties over irgen programs, whose failing configs
	// the reducer can shrink.
	genBased bool
}

func properties() []property {
	return []property{
		{"lockstep", simcheck.CheckShadowLockstep, true},
		{"neutrality", simcheck.CheckPrefetchNeutrality, true},
		{"metrics", simcheck.CheckMetricsNeutrality, true},
		{"fused", simcheck.CheckFusedDifferential, true},
		{"hwpfneutral", simcheck.CheckHWPFNeutrality, true},
		{"lanes", simcheck.CheckLanes, true},
		{"sampling", func(seed uint64, _ irgen.Config) error {
			return simcheck.CheckSamplingInvariance(seed)
		}, false},
		{"merge", func(seed uint64, _ irgen.Config) error {
			if err := simcheck.CheckMergeCommutative(seed); err != nil {
				return err
			}
			return simcheck.CheckMergeAssociative(seed)
		}, false},
		{"lfu", func(seed uint64, _ irgen.Config) error {
			return simcheck.CheckLFUExact(seed)
		}, false},
		{"converge", func(seed uint64, _ irgen.Config) error {
			return simcheck.CheckConvergence(seed)
		}, false},
		{"pathtruth", func(seed uint64, _ irgen.Config) error {
			return simcheck.CheckPathTruth(seed)
		}, false},
	}
}

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("simcheck", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		propFlag = fs.String("prop", "all", "property to check: all, lockstep, neutrality, metrics, fused, hwpfneutral, lanes, sampling, merge, lfu, converge, pathtruth")
		nFlag    = fs.Int("n", 20, "number of consecutive seeds per property")
		seedFlag = fs.Uint64("seed", 1, "first seed")
		funcs    = fs.Int("funcs", 0, "irgen MaxFuncs bound (0 = default)")
		blocks   = fs.Int("blocks", 0, "irgen MaxBlocks bound (0 = default)")
		trip     = fs.Int("trip", 0, "irgen MaxLoopTrip bound (0 = default)")
		depth    = fs.Int("depth", 0, "irgen MaxDepth bound (0 = default)")
		noReduce = fs.Bool("no-reduce", false, "report the first failure without shrinking it")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	cfg := irgen.Config{MaxFuncs: *funcs, MaxBlocks: *blocks, MaxLoopTrip: *trip, MaxDepth: *depth}

	var failed bool
	for _, p := range properties() {
		if *propFlag != "all" && *propFlag != p.name {
			continue
		}
		f := simcheck.FindFailure(p.name, p.prop, *seedFlag, *nFlag, cfg)
		if f == nil {
			fmt.Fprintf(out, "%-10s ok (%d seeds from %d)\n", p.name, *nFlag, *seedFlag)
			continue
		}
		failed = true
		if p.genBased && !*noReduce {
			reduced := simcheck.Reduce(p.prop, f)
			fmt.Fprintf(out, "%-10s FAIL\n%v\n\nreduced reproducer:\n%v\n", p.name, f, reduced)
		} else {
			fmt.Fprintf(out, "%-10s FAIL\n%v\n", p.name, f)
		}
	}
	if *propFlag != "all" {
		known := false
		for _, p := range properties() {
			known = known || p.name == *propFlag
		}
		if !known {
			return fmt.Errorf("unknown property %q", *propFlag)
		}
	}
	if failed {
		return fmt.Errorf("property violations found")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "simcheck:", err)
		}
		os.Exit(1)
	}
}
