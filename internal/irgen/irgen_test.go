package irgen

import (
	"testing"
	"testing/quick"

	"stridepf/internal/ir"
	"stridepf/internal/machine"
)

func TestGeneratedProgramsVerify(t *testing.T) {
	prop := func(seed uint64) bool {
		prog := Generate(seed, Config{})
		return ir.VerifyProgram(prog) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGeneratedProgramsTerminate(t *testing.T) {
	prop := func(seed uint64) bool {
		prog := Generate(seed, Config{})
		m, err := machine.New(prog, machine.Config{MaxSteps: 50_000_000})
		if err != nil {
			return false
		}
		_, err = m.Run()
		return err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGeneratedProgramsDeterministic(t *testing.T) {
	prog := Generate(42, Config{})
	run := func() int64 {
		m, err := machine.New(prog, machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if run() != run() {
		t.Error("generated program is nondeterministic")
	}
	// Same seed regenerates the identical program.
	if ir.PrintProgram(Generate(42, Config{})) != ir.PrintProgram(prog) {
		t.Error("same seed produced different programs")
	}
}

func TestGeneratedProgramsContainLoopsAndLoads(t *testing.T) {
	// Over a handful of seeds, the generator must produce the constructs
	// the passes care about.
	var loops, loads, calls int
	for seed := uint64(1); seed <= 20; seed++ {
		prog := Generate(seed, Config{})
		st := ir.CollectStats(prog)
		loads += st.Loads
		if st.Funcs > 1 {
			calls++
		}
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				for _, s := range b.Succs() {
					if s.Index <= b.Index {
						loops++
					}
				}
			}
		}
	}
	if loops == 0 || loads == 0 || calls == 0 {
		t.Errorf("generator too tame: loops=%d loads=%d multi-func=%d", loops, loads, calls)
	}
}
