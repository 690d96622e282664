package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stridepf/internal/ir"
)

// writeTestIR emits a small summing loop as an IR listing: main reads the
// element count from M[0x2000] and returns the sum of the counter values.
func writeTestIR(t *testing.T) string {
	t.Helper()
	b := ir.NewBuilder("main")
	n := b.Load(b.Const(0x2000), 0).Dst
	sum := b.F.NewReg()
	b.MovConst(sum, 0)
	i := b.F.NewReg()
	b.MovConst(i, 0)
	head := b.Block("head")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Br(head)
	b.At(head)
	b.CondBr(b.CmpLT(i, n), body, exit)
	b.At(body)
	b.Mov(sum, b.Add(sum, i))
	b.AddITo(i, i, 1)
	b.Br(head)
	b.At(exit)
	b.Ret(sum)
	prog := ir.NewProgram()
	prog.Add(b.Finish())

	path := filepath.Join(t.TempDir(), "sum.ir")
	if err := os.WriteFile(path, []byte(ir.PrintProgram(prog)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWithStats(t *testing.T) {
	path := writeTestIR(t)
	var out strings.Builder
	// sum(0..9) = 45
	if err := run([]string{"-set", "0x2000=10", "-stats", path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"return value: 45", "cycles:", "L1D"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestPrintOnly(t *testing.T) {
	path := writeTestIR(t)
	var out strings.Builder
	if err := run([]string{"-print", path}, &out); err != nil {
		t.Fatalf("run -print: %v", err)
	}
	if !strings.Contains(out.String(), "func main") {
		t.Errorf("-print output lacks the function:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("missing argument accepted")
	}
	if err := run([]string{"/nonexistent.ir"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	path := writeTestIR(t)
	if err := run([]string{"-set", "garbage", path}, &out); err == nil {
		t.Error("malformed -set accepted")
	}
}

// TestTraceGolden pins the -trace output byte for byte on a kernel with a
// call, a predicated instruction and a load+store pair: one full run with
// -stats, then two runs cut short by -max-steps, one inside the callee and
// one after it returned. A cut run prints every instruction within the
// budget and none beyond it. Regenerate with
// UPDATE_GOLDEN=1 go test ./cmd/irrun -run TraceGolden.
func TestTraceGolden(t *testing.T) {
	src := filepath.Join("testdata", "trace.ir")
	var out strings.Builder
	for _, args := range [][]string{
		{"-trace", "-stats", "-set", "0x2000=5", src},
		{"-trace", "-max-steps", "12", src},
		{"-trace", "-max-steps", "20", src},
	} {
		fmt.Fprintf(&out, "$ irrun %s\n", strings.Join(args, " "))
		if err := run(args, &out); err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
		}
	}
	got := out.String()
	path := filepath.Join("testdata", "trace.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("trace output changed; review and regenerate with UPDATE_GOLDEN=1\n--- got\n%s", got)
	}
}
