// Quickstart: the full stride-profiling + prefetching pipeline on a small
// hand-built pointer-chasing loop — the paper's Figure 3 example end to end.
//
//  1. Build an IR program that walks a linked list.
//  2. Instrument it with the edge-check method (Figure 14) and run it on a
//     training input to collect the combined edge + stride profile.
//  3. Feed the profile back: classify the loads (Figure 5) and insert
//     prefetching code (Figure 3c).
//  4. Run the clean and prefetched binaries and compare cycle counts.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/ir"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
)

// listWalk is a minimal workload: main() walks a linked list rooted at the
// pointer stored at address 0x2000, several times, summing node payloads.
type listWalk struct{ prog *ir.Program }

func newListWalk() *listWalk {
	b := ir.NewBuilder("main")

	head := b.Block("head")
	body := b.Block("body")
	passDone := b.Block("passdone")
	outerHead := b.Block("outerhead")
	exit := b.Block("exit")

	sum := b.Const(0)
	root := b.Const(0x2000)
	zero := b.Const(0)
	passes := b.Load(b.Const(0x2008), 0).Dst
	i := b.Const(0)
	b.Br(outerHead)

	// for (i = 0; i < passes; i++)
	b.At(outerHead)
	b.CondBr(b.CmpLT(i, passes), head, exit)

	//   while (p) { sum += p->value; p = p->next }  (Figure 3a)
	p := b.F.NewReg()
	b.At(head)
	b.LoadTo(p, root, 0)
	b.Br(body)

	b.At(body)
	v := b.Load(p, 8) // p->value
	b.LoadTo(p, p, 0) // p = p->next
	b.Mov(sum, b.Add(sum, v.Dst))
	b.CondBr(b.CmpNE(p, zero), body, passDone)

	b.At(passDone)
	b.AddITo(i, i, 1)
	b.Br(outerHead)

	b.At(exit)
	b.Ret(sum)

	prog := ir.NewProgram()
	prog.Add(b.Finish())
	return &listWalk{prog: prog}
}

func (w *listWalk) Name() string         { return "quickstart.listwalk" }
func (w *listWalk) Description() string  { return "pointer-chasing list walk" }
func (w *listWalk) Program() *ir.Program { return w.prog }
func (w *listWalk) Train() core.Input    { return core.Input{Name: "train", Scale: 1} }
func (w *listWalk) Ref() core.Input      { return core.Input{Name: "ref", Scale: 8} }

// Setup allocates the list nodes in traversal order — the allocation
// behaviour that gives pointer chases their stride patterns.
func (w *listWalk) Setup(m *machine.Machine, in core.Input) {
	n := 8000 * in.Scale
	base := m.Heap.Alloc(int64(n) * 16) // node: [next, value]
	for i := 0; i < n; i++ {
		a := base + uint64(i)*16
		var next int64
		if i+1 < n {
			next = int64(a + 16)
		}
		m.Mem.Store(a, next)
		m.Mem.Store(a+8, int64(i%100))
	}
	m.Mem.Store(0x2000, int64(base))
	m.Mem.Store(0x2008, 3)
}

func main() {
	w := newListWalk()

	// Step 1+2: integrated edge + stride profiling on the train input.
	pr, err := core.ProfilePass(w, w.Train(),
		instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== stride profile (train input) ==")
	for _, s := range pr.Profiles.Stride.Summaries() {
		fmt.Printf("load %s#%d: %d samples, top strides %v, %d zero-diffs\n",
			s.Key.Func, s.Key.ID, s.TotalStrides, s.TopStrides, s.ZeroDiffs)
	}

	// Step 3: profile feedback — classify and insert prefetches.
	fb, err := prefetch.Apply(w.Program(), pr.Profiles, prefetch.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== feedback decisions ==")
	for _, d := range fb.Decisions {
		fmt.Printf("load %s#%d: class=%s stride=%d K=%d %s\n",
			d.Key.Func, d.Key.ID, d.Class, d.Stride, d.K, d.FilteredBy)
	}
	fmt.Printf("%d prefetch instructions inserted\n", fb.Inserted)

	// Step 4: measure on the (larger) reference input.
	sr, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles, prefetch.Options{}, machine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== measurement (ref input) ==")
	fmt.Printf("clean:      %10d cycles\n", sr.Base.Stats.Cycles)
	fmt.Printf("prefetched: %10d cycles (%d fully hidden, %d partially hidden prefetches)\n",
		sr.Prefetched.Stats.Cycles, sr.Prefetched.PrefetchUseful, sr.Prefetched.PrefetchLate)
	fmt.Printf("speedup:    %.2fx\n", sr.Speedup)
}
