// Mcfnet reproduces the paper's headline result on the synthetic 181.mcf
// workload: the network-simplex arc scan is a pointer chase, yet arcs and
// nodes are laid out in scan order by mcf's allocator, so the chase has a
// ~94% constant stride and a >L3 working set — stride prefetching turns
// most of its memory stalls into overlap (the paper reports 1.59x).
//
// The example also compares the profile-guided result against the
// profile-blind static induction-pointer prefetching of Stoutchinin et al.
// (package baseline), and shows the cache-level behaviour behind the
// speedup.
//
// Run with: go run ./examples/mcfnet
package main

import (
	"fmt"
	"log"

	"stridepf/internal/baseline"
	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/workloads"
)

func main() {
	w := workloads.Get("181.mcf")

	// Clean run: the baseline.
	clean, err := core.Execute(w.Program(), w, w.Ref(), machine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean run:        %12d cycles (%5.1f%% stalled on demand misses)\n",
		clean.Stats.Cycles, 100*float64(clean.DemandMissCycles)/float64(clean.Stats.Cycles))

	// Profile-guided stride prefetching.
	pr, err := core.ProfilePass(w, w.Train(),
		instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fb, err := prefetch.Apply(w.Program(), pr.Profiles, prefetch.Options{})
	if err != nil {
		log.Fatal(err)
	}
	guided, err := core.Execute(fb.Prog, w, w.Ref(), machine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if guided.Ret != clean.Ret {
		log.Fatal("prefetched binary diverged")
	}
	fmt.Printf("profile-guided:   %12d cycles (%5.1f%% stalled)  speedup %.2fx\n",
		guided.Stats.Cycles, 100*float64(guided.DemandMissCycles)/float64(guided.Stats.Cycles),
		float64(clean.Stats.Cycles)/float64(guided.Stats.Cycles))
	fmt.Printf("  prefetches: %d issued, %d fully hidden, %d partially hidden, %d dropped\n",
		guided.Stats.PrefetchRefs, guided.PrefetchUseful, guided.PrefetchLate, guided.PrefetchDrops)

	// Profile-blind static induction-pointer prefetching (Stoutchinin-style).
	st, err := baseline.Apply(w.Program(), baseline.Options{})
	if err != nil {
		log.Fatal(err)
	}
	static, err := core.Execute(st.Prog, w, w.Ref(), machine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if static.Ret != clean.Ret {
		log.Fatal("static-prefetched binary diverged")
	}
	fmt.Printf("static (blind):   %12d cycles                    speedup %.2fx\n",
		static.Stats.Cycles, float64(clean.Stats.Cycles)/float64(static.Stats.Cycles))
	fmt.Printf("  %d induction loads prefetched without profile knowledge\n",
		len(st.InductionLoads))

	fmt.Println("\nper-load decisions (profile-guided):")
	for _, d := range fb.Decisions {
		if d.Class == prefetch.None {
			continue
		}
		fmt.Printf("  %s#%d: %s stride=%d K=%d freq=%d trip=%.0f\n",
			d.Key.Func, d.Key.ID, d.Class, d.Stride, d.K, d.Freq, d.Trip)
	}
}
