// Gapgc walks through the paper's Figure 2 example on the synthetic 254.gap
// workload: the garbage-collection scan whose handle dereference has four
// dominant strides (the paper measures 29%/28%/21%/5%) and whose
// master-pointer load has two (48%/47%). Neither load is a single-stride
// load, but the strides change only at allocation-phase boundaries, so the
// stride differences are frequently zero — the signature of a
// phased-multi-stride (PMST) load, prefetched with the dynamic-stride
// sequence of Figure 3(d).
//
// The example prints the classifier's view of each load and compares PMST
// prefetching against (a) no prefetching and (b) treating the loads as
// single-stride, demonstrating why the stride-difference profile matters.
//
// Run with: go run ./examples/gapgc
package main

import (
	"fmt"
	"log"

	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/workloads"
)

func main() {
	w := workloads.Get("254.gap")
	pr, err := core.ProfilePass(w, w.Train(),
		instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== stride profiles of the GC-scan loads ==")
	for _, s := range pr.Profiles.Stride.Summaries() {
		if s.TotalStrides == 0 {
			continue
		}
		fmt.Printf("%s#%d: %d samples, zero-diff ratio %.2f\n",
			s.Key.Func, s.Key.ID, s.TotalStrides,
			float64(s.ZeroDiffs)/float64(s.TotalStrides))
		var covered int64
		for i, e := range s.TopStrides {
			fmt.Printf("   stride[%d] = %5d  (%4.1f%%)\n",
				i+1, e.Value, 100*float64(e.Freq)/float64(s.TotalStrides))
			covered += e.Freq
		}
		fmt.Printf("   top-4 together: %.1f%%\n",
			100*float64(covered)/float64(s.TotalStrides))
	}

	// Classifier decisions.
	fb, err := prefetch.Apply(w.Program(), pr.Profiles, prefetch.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== feedback decisions ==")
	var pmst int
	for _, d := range fb.Decisions {
		if d.Class == prefetch.None {
			continue
		}
		fmt.Printf("%s#%d: %s (top1 stride %d, K=%d) %s\n",
			d.Key.Func, d.Key.ID, d.Class, d.Stride, d.K, d.FilteredBy)
		if d.Class == prefetch.PMST {
			pmst++
		}
	}
	fmt.Printf("%d loads classified PMST\n", pmst)

	// Measure PMST prefetching.
	sr, err := core.MeasureSpeedup(w, w.Ref(), pr.Profiles, prefetch.Options{}, machine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPMST (dynamic-stride) prefetching: %.3fx speedup\n", sr.Speedup)
	fmt.Printf("  useful prefetches: %d, wrong-phase drops: %d\n",
		sr.Prefetched.PrefetchUseful, sr.Prefetched.PrefetchDrops)
}
