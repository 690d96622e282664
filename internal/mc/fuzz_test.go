package mc

import (
	"testing"

	"stridepf/internal/ir"
	"stridepf/internal/machine"
)

// FuzzCompile checks that the compiler never panics and that anything it
// accepts is well-formed IR that executes without machine errors (other
// than the step budget). Run with `go test -fuzz=FuzzCompile ./internal/mc`.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"func main() { return 42; }",
		"var g = 1; func main() { g = g + 1; return g; }",
		"func f(a, b) { return a * b; } func main() { return f(6, 7); }",
		"func main() { var p = alloc(64); *p = 9; return *p; }",
		"func main() { for (var i = 0; i < 9; i = i + 1) { if (i == 3) { break; } } return 0; }",
		"func main() { while (0) { continue; } return rand(5); }",
		"func main() { prefetch(4096); return 1 && 0 || 1; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if verr := ir.VerifyProgram(prog); verr != nil {
			t.Fatalf("accepted program fails verification: %v\nsource: %q", verr, src)
		}
		m, merr := machine.New(prog, machine.Config{MaxSteps: 200_000})
		if merr != nil {
			t.Fatalf("machine rejected verified program: %v", merr)
		}
		if _, rerr := m.Run(); rerr != nil && rerr != machine.ErrMaxSteps && rerr != machine.ErrMaxDepth {
			t.Fatalf("execution failed: %v\nsource: %q", rerr, src)
		}
	})
}
