package mc

import (
	"os"
	"strings"
	"testing"

	"stridepf/internal/ir"
	"stridepf/internal/machine"
)

// run compiles and executes src, returning main's result.
func run(t *testing.T, src string) int64 {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := machine.New(prog, machine.Config{MaxSteps: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestArithmeticAndPrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"func main() { return 2 + 3 * 4; }", 14},
		{"func main() { return (2 + 3) * 4; }", 20},
		{"func main() { return 10 - 3 - 2; }", 5},
		{"func main() { return 7 / 2; }", 3},
		{"func main() { return 7 % 3; }", 1},
		{"func main() { return 1 << 4; }", 16},
		{"func main() { return 256 >> 3; }", 32},
		{"func main() { return 12 & 10; }", 8},
		{"func main() { return 12 | 3; }", 15},
		{"func main() { return 12 ^ 10; }", 6},
		{"func main() { return -5; }", -5},
		{"func main() { return !0 + !7; }", 1},
		{"func main() { return 3 < 5; }", 1},
		{"func main() { return 5 <= 4; }", 0},
		{"func main() { return 0x10; }", 16},
		{"func main() { return 2 + 3 == 5; }", 1},
	}
	for _, c := range cases {
		if got := run(t, c.src); got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right-hand side must not execute when short-circuited: g counts
	// bump() calls.
	src := `
var g = 0;
func bump() { g = g + 1; return 1; }
func main() {
    var a = 0 && bump();   // bump not called
    var b = 1 || bump();   // bump not called
    var c = 1 && bump();   // called
    var d = 0 || bump();   // called
    return g * 1000 + a * 100 + b * 10 + c + d;
}`
	if got := run(t, src); got != 2012 {
		t.Errorf("short-circuit result = %d, want 2012", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
func main() {
    var sum = 0;
    for (var i = 0; i < 10; i = i + 1) {
        if (i % 2 == 0) {
            sum = sum + i;
        } else if (i == 5) {
            sum = sum + 100;
        } else {
            sum = sum + 1;
        }
    }
    var n = 3;
    while (n > 0) {
        sum = sum * 2;
        n = n - 1;
    }
    return sum;
}`
	// evens 0+2+4+6+8 = 20; i==5 adds 100; odds 1,3,7,9 add 4 -> 124; *8 = 992.
	if got := run(t, src); got != 992 {
		t.Errorf("control flow result = %d, want 992", got)
	}
}

func TestMemoryAndGlobals(t *testing.T) {
	src := `
var head = 0;
var count = 3;
func main() {
    var p = alloc(24);
    *p = 11;
    *(p + 8) = 22;
    *(p + 16) = 33;
    head = p;
    var q = head;
    return *q + *(q + 8) + *(q + 16) + count;
}`
	if got := run(t, src); got != 69 {
		t.Errorf("memory result = %d, want 69", got)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
func fib(n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() { return fib(12); }`
	if got := run(t, src); got != 144 {
		t.Errorf("fib(12) = %d, want 144", got)
	}
}

func TestEarlyReturnAndDeadCode(t *testing.T) {
	src := `
func f(x) {
    if (x > 0) { return 1; }
    return 2;
    x = 99; // unreachable, must still compile
}
func main() { return f(5) * 10 + f(-5); }`
	if got := run(t, src); got != 12 {
		t.Errorf("result = %d, want 12", got)
	}
}

func TestPrefetchStatement(t *testing.T) {
	src := `
func main() {
    var p = alloc(4096);
    prefetch(p + 128);
    return *p;
}`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	st := ir.CollectStats(prog)
	if st.Prefetches != 1 {
		t.Errorf("prefetches = %d, want 1", st.Prefetches)
	}
	if got := run(t, src); got != 0 {
		t.Errorf("result = %d, want 0", got)
	}
}

func TestRandBounds(t *testing.T) {
	src := `
func main() {
    var ok = 1;
    for (var i = 0; i < 100; i = i + 1) {
        var r = rand(10);
        if (r < 0 || r >= 10) { ok = 0; }
    }
    return ok;
}`
	if got := run(t, src); got != 1 {
		t.Errorf("rand bounds violated")
	}
}

// Figure 1 of the paper, transliterated: a pointer-chasing loop over
// string_list nodes whose strings were allocated in traversal order.
func TestPaperFigure1(t *testing.T) {
	src := `
var string_list = 0;

func build(n) {
    var prev = 0;
    for (var i = 0; i < n; i = i + 1) {
        var node = alloc(16);    // [next, string]
        var str = alloc(32);
        *str = i;
        *(node + 8) = str;
        *node = prev;
        prev = node;
    }
    return prev;
}

func main() {
    string_list = build(1000);
    var sum = 0;
    var sn = 0;
    for (; string_list != 0; string_list = sn) {
        sn = *string_list;             // S1: sn = string_list->next
        sum = sum + *(*(string_list + 8)); // S2: use string_list->string
    }
    return sum;
}`
	if got, want := run(t, src), int64(1000*999/2); got != want {
		t.Errorf("figure 1 sum = %d, want %d", got, want)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, wantErr string
	}{
		{"func main() { return x; }", "undefined variable"},
		{"func main() { y = 1; }", "undefined variable"},
		{"func main() { return f(); }", "undefined function"},
		{"func f(a) { return a; } func main() { return f(1, 2); }", "takes 1 arguments"},
		{"func f() {} func f() {} func main() {}", "duplicate function"},
		{"var g = 1; var g = 2; func main() {}", "duplicate global"},
		{"func main(x) {}", "main must take no parameters"},
		{"func f() {}", "no main"},
		{"func main() { var x = 1; var x = 2; }", "duplicate local"},
		{"func main() { return 1 + ; }", "unexpected token"},
		{"func main() { ", "unexpected EOF"},
		{"var g = x; func main() {}", "integer literals"},
		{"func main() { return 99999999999999999999; }", "bad number"},
		{"func main() { return 1 $ 2; }", "unexpected character"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error containing %q", c.src, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Compile(%q) error = %q, want containing %q", c.src, err, c.wantErr)
		}
	}
}

func TestErrorsIncludeLineNumbers(t *testing.T) {
	src := "func main() {\n    var a = 1;\n    return b;\n}"
	_, err := Compile(src)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %v does not cite line 3", err)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
// line comment
func main() {
    /* block
       comment */
    return 7; // trailing
}`
	if got := run(t, src); got != 7 {
		t.Errorf("result = %d, want 7", got)
	}
}

func TestGlobalInitialisation(t *testing.T) {
	src := `
var a = 5;
var b = -3;
var c = 0;
func main() { return a * 100 + b * 10 + c; }`
	if got := run(t, src); got != 470 {
		t.Errorf("globals = %d, want 470", got)
	}
}

func TestExampleProgramsCompileAndRun(t *testing.T) {
	// The checked-in example programs must keep compiling and running.
	for _, path := range []string{
		"../../examples/mcprogs/fig1.mc",
		"../../examples/mcprogs/fig2.mc",
	} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		prog, err := Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		m, err := machine.New(prog, machine.Config{MaxSteps: 100_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
}

func TestBreakContinue(t *testing.T) {
	src := `
func main() {
    var sum = 0;
    for (var i = 0; i < 100; i = i + 1) {
        if (i == 10) { break; }
        if (i % 2 == 1) { continue; }
        sum = sum + i;           // 0+2+4+6+8 = 20
    }
    var j = 0;
    while (1) {
        j = j + 1;
        if (j >= 5) { break; }
    }
    var k = 0;
    var odd = 0;
    while (k < 10) {
        k = k + 1;
        if (k % 2 == 0) { continue; }
        odd = odd + 1;           // 5 odd values
    }
    return sum * 100 + j * 10 + odd;
}`
	if got := run(t, src); got != 2055 {
		t.Errorf("break/continue result = %d, want 2055", got)
	}
}

func TestBreakOutsideLoopFails(t *testing.T) {
	for _, src := range []string{
		"func main() { break; }",
		"func main() { continue; }",
	} {
		if _, err := Compile(src); err == nil || !strings.Contains(err.Error(), "outside loop") {
			t.Errorf("Compile(%q) error = %v, want outside-loop error", src, err)
		}
	}
}

func TestNestedBreakTargetsInnermost(t *testing.T) {
	src := `
func main() {
    var hits = 0;
    for (var i = 0; i < 3; i = i + 1) {
        for (var j = 0; j < 100; j = j + 1) {
            if (j == 2) { break; }   // inner break only
            hits = hits + 1;
        }
    }
    return hits;                      // 3 outer iterations x 2
}`
	if got := run(t, src); got != 6 {
		t.Errorf("nested break result = %d, want 6", got)
	}
}

func TestCompileNeverPanics(t *testing.T) {
	// Arbitrary byte soup must produce an error, never a panic.
	inputs := []string{
		"func", "func main", "func main(", "}{", ";;;", "var", "var x",
		"func main() { while } ", "func main() { for (;;) }",
		"func main() { *; }", "func main() { x(((((; }",
		"\x00\x01\x02", "func main() { return 1 +* 2; }",
		"func main() { if (1) { } else }", "/* unterminated",
		"func main() { prefetch; }",
	}
	for _, src := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Compile(%q) panicked: %v", src, r)
				}
			}()
			_, _ = Compile(src)
		}()
	}
}

func TestIndirectExampleProgram(t *testing.T) {
	src, err := os.ReadFile("../../examples/mcprogs/indirect.mc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(prog, machine.Config{MaxSteps: 100_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
