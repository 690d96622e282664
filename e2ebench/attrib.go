package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os/exec"
	"strconv"
	"strings"
)

// CPU-profile attribution. A traced repetition writes a runtime/pprof CPU
// profile; `go tool pprof -traces -unit=ms` prints it offline as one block
// per distinct stack (value, then frames leaf first). Every block is
// charged twice, to exactly one layer of each kind:
//
//   - a stage, by the innermost stage frame (stageFrames), else "other";
//   - a module, by the innermost frame of a mapped package (moduleOf); the
//     runtime and standard-library frames below it are charged to it. A
//     stack with no mapped frame goes to runtime.gc (a GC worker) or
//     runtime.other.
//
// Both breakdowns therefore sum to the profile total, which must also
// equal the total pprof reports in its header: the reconciliation identity
// TestAttributionReconciles pins.

// breakdown is one profile's attribution in microseconds of sampled CPU
// time, plus the CPU time the process actually used while profiling. The
// two differ when the kernel delivers fewer samples than asked for (a
// 250 Hz tick caps a 500 Hz request at 250); layer seconds are reported as
// each layer's share of the samples times CPUS.
type breakdown struct {
	TotalUS int64            `json:"total_us"`
	Blocks  int              `json:"blocks"`
	Stage   map[string]int64 `json:"stage_us"`
	Module  map[string]int64 `json:"module_us"`
	CPUS    float64          `json:"cpu_s"`
}

// seconds converts sampled microseconds into CPU seconds.
func (b breakdown) seconds(us int64) float64 {
	if b.CPUS == 0 || b.TotalUS == 0 {
		return float64(us) / 1e6
	}
	return b.CPUS * float64(us) / float64(b.TotalUS)
}

// stageFrames maps a function to the pipeline stage it starts. Nesting is
// resolved by the innermost (leaf-most) match: instrumentation and
// extraction run inside core.ProfilePass, and the remainder of a profiling
// pass is the profiling run itself.
var stageFrames = map[string]string{
	"stridepf/internal/instrument.Instrument":                   "instrument",
	"stridepf/internal/instrument.(*Result).ExtractEdgeProfile": "extract",
	"stridepf/internal/instrument.(*Result).StrideSummaries":    "extract",
	"stridepf/internal/prefetch.Apply":                          "insert",
	"stridepf/internal/core.ProfilePass":                        "profile_run",
	"stridepf/internal/core.Execute":                            "measure_run",
}

// modulePkgs maps a stridepf package to its module.
var modulePkgs = map[string]string{
	"machine": "machine", "cache": "cache", "mem": "mem",
	"stride": "stride", "lfu": "stride",
	"hwpf": "hwpf", "obs": "obs",
	"instrument": "compiler", "cfg": "compiler", "blpath": "compiler", "ir": "compiler", "opt": "compiler",
	"prefetch": "prefetch", "profile": "profile",
	"walstore": "walstore", "server": "server", "api": "api", "client": "client",
}

// moduleOf returns the module a package belongs to, or "" for packages
// whose cost is charged to their caller (runtime and most of the standard
// library).
func moduleOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "stridepf/internal/"):
		if m, ok := modulePkgs[strings.TrimPrefix(pkg, "stridepf/internal/")]; ok {
			return m
		}
		return "pipeline" // experiments, core, workloads, simcheck and the rest
	case strings.HasPrefix(pkg, "stridepf/"):
		return "bench"
	case pkg == "main":
		return "bench"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "mime" || strings.HasPrefix(pkg, "mime/"):
		return "net"
	}
	return ""
}

// packageOf extracts the import path from a symbol name such as
// "stridepf/internal/machine.(*Machine).Run" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// stageOf returns the stage of a function, matching closures of a stage
// function ("core.ProfilePass.func1") as the function itself.
func stageOf(fn string) string {
	for {
		if s, ok := stageFrames[fn]; ok {
			return s
		}
		dot := strings.LastIndex(fn, ".")
		if dot < 0 || !strings.HasPrefix(fn[dot+1:], "func") && !strings.HasPrefix(fn[dot+1:], "gowrap") {
			return ""
		}
		fn = fn[:dot]
	}
}

// isGC reports whether a runtime frame belongs to the garbage collector.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.markroot")
}

// charge attributes one stack (leaf first) to a stage and a module.
func charge(stack []string) (stage, module string) {
	for _, fn := range stack {
		if stage == "" {
			stage = stageOf(fn)
		}
		if module == "" {
			module = moduleOf(packageOf(fn))
		}
	}
	if stage == "" {
		stage = "other"
	}
	if module == "" {
		module = "runtime.other"
		for _, fn := range stack {
			if isGC(fn) {
				module = "runtime.gc"
				break
			}
		}
	}
	return stage, module
}

// parseMS parses a pprof value printed with -unit=ms ("12ms") into
// microseconds.
func parseMS(v string) (int64, error) {
	num, ok := strings.CutSuffix(v, "ms")
	if !ok {
		return 0, fmt.Errorf("pprof value %q is not in ms", v)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof value %q: %w", v, err)
	}
	return int64(math.Round(f * 1e3)), nil
}

// parseTraces attributes the blocks of `go tool pprof -traces` output.
// Block layout: a separator line of dashes, optional label lines
// ("%10s:  %s"), then frame lines ("%10s   %s"); the value field is set
// on the first frame only.
func parseTraces(r io.Reader) (breakdown, error) {
	b := breakdown{Stage: map[string]int64{}, Module: map[string]int64{}}
	var (
		value  int64
		stack  []string
		open   bool
		header int64 = -1 // the total pprof reports, when it does
	)
	flush := func() {
		if open && len(stack) > 0 {
			stage, module := charge(stack)
			b.Stage[stage] += value
			b.Module[module] += value
			b.TotalUS += value
			b.Blocks++
		}
		value, stack, open = 0, stack[:0], false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			open = true
			continue
		}
		if !open {
			if _, total, ok := strings.Cut(line, "Total samples = "); ok {
				us, err := parseMS(strings.Fields(total)[0])
				if err != nil {
					return b, err
				}
				header = us
			}
			continue
		}
		if len(line) < 13 {
			continue
		}
		field, rest := strings.TrimSpace(line[:10]), line[10:]
		if strings.HasPrefix(rest, ":") {
			continue // a sample label
		}
		if !strings.HasPrefix(rest, "   ") {
			return b, fmt.Errorf("pprof traces: unexpected line %q", line)
		}
		if field != "" {
			if len(stack) > 0 {
				return b, fmt.Errorf("pprof traces: second value in one block at %q", line)
			}
			us, err := parseMS(field)
			if err != nil {
				return b, err
			}
			value = us
		}
		fn := strings.TrimSuffix(strings.TrimSpace(rest), " (inline)")
		stack = append(stack, fn)
	}
	flush()
	if err := sc.Err(); err != nil {
		return b, err
	}
	if b.Blocks == 0 {
		return b, fmt.Errorf("pprof traces: no samples")
	}
	if header >= 0 && header != b.TotalUS {
		return b, fmt.Errorf("pprof traces: blocks sum to %dus, header reports %dus", b.TotalUS, header)
	}
	return b, nil
}

// attributeProfile runs `go tool pprof -traces` on a CPU profile file and
// attributes it.
func attributeProfile(path string) (breakdown, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ms", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return breakdown{}, fmt.Errorf("go tool pprof -traces %s: %w: %s", path, err, stderr.String())
	}
	return parseTraces(bytes.NewReader(out))
}
