package cache

import (
	"testing"

	"stridepf/internal/obs"
)

// TestEffectivenessHandComputed drives a tiny direct-mapped hierarchy
// through a fully scripted access sequence and checks every effectiveness
// counter against hand-computed values. The single level is 256 B,
// direct-mapped, 64 B lines — four sets, so set = line mod 4.
//
// Script (A=0x000/set0, B=0x100/set0, C=0x040/set1, D=0x080/set2,
// E=0x0c0/set3, F=0x140/set1, G=0x240/set1):
//
//	t=0    Load A        miss, uncovered #1, demand fill
//	t=100  Prefetch B    SSST, issued #1, ready at 200
//	t=150  Prefetch E    hwpf, in-flight table (cap 1) full -> dropped-MSHR
//	t=160  Prefetch B    SSST, line already in flight -> redundant
//	t=200  Complete      B fills set 0, evicts demand-owned A -> harm window
//	t=210  Load B        tagged L1 hit -> useful (SSST); tag consumed
//	t=220  Load A        miss on A's open window -> harmful (SSST),
//	                     uncovered #2; refill evicts now-demand-owned B
//	t=400  Prefetch C    PMST, issued #2, ready at 500
//	t=450  Load C        hits in flight 50 cycles early -> late (PMST)
//	t=600  Prefetch D    WSST, issued #3, ready at 700
//	t=700  Complete      D fills set 2, stays untouched -> resident-unused
//	t=800  Prefetch F    SSST, issued #4, ready at 900
//	t=900  Complete      F fills set 1, evicts demand-owned C
//	t=1000 Load G        miss, uncovered #3; fill evicts still-tagged F
//	                     -> evicted-unused (SSST)
//	t=1100 Prefetch E    hwpf, issued #5, never completes -> in-flight-at-end
func TestEffectivenessHandComputed(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{
		Levels:      []Config{{Name: "L1D", Size: 256, Assoc: 1, LineSize: 64, HitLatency: 2}},
		MemLatency:  100,
		MaxInFlight: 1,
	})
	col := obs.NewCollector(nil)
	h.EnableObs(col)

	const (
		A = 0x000
		B = 0x100
		C = 0x040
		D = 0x080
		E = 0x0c0
		F = 0x140
		G = 0x240
	)

	if lat := h.Load(A, 0); lat != 100 {
		t.Fatalf("cold load latency = %d, want 100", lat)
	}
	h.PrefetchClass(B, 100, obs.ClassSSST)
	h.PrefetchClass(E, 150, obs.ClassHW)   // MSHR full
	h.PrefetchClass(B, 160, obs.ClassSSST) // redundant: already in flight
	h.CompleteInflight(200)
	if lat := h.Load(B, 210); lat != 2 {
		t.Fatalf("prefetched load latency = %d, want 2 (L1 hit)", lat)
	}
	h.Load(A, 220) // harmful: B's fill evicted it
	h.PrefetchClass(C, 400, obs.ClassPMST)
	if lat := h.Load(C, 450); lat != 52 {
		t.Fatalf("late load latency = %d, want 52 (50 remaining + 2 hit)", lat)
	}
	h.PrefetchClass(D, 600, obs.ClassWSST)
	h.CompleteInflight(700)
	h.PrefetchClass(F, 800, obs.ClassSSST)
	h.CompleteInflight(900)
	h.Load(G, 1000)
	h.PrefetchClass(E, 1100, obs.ClassHW)
	h.FinishObs(1150)

	want := map[obs.Class]obs.ClassStats{
		obs.ClassSSST: {Issued: 2, Useful: 1, Redundant: 1, EvictedUnused: 1, Harmful: 1},
		obs.ClassPMST: {Issued: 1, Late: 1},
		obs.ClassWSST: {Issued: 1, ResidentUnused: 1},
		obs.ClassHW:   {Issued: 1, DroppedMSHR: 1, InFlightEnd: 1},
	}
	for cls := obs.Class(0); cls < obs.NumClasses; cls++ {
		if got := col.Classes[cls]; got != want[cls] {
			t.Errorf("%s stats:\n got %+v\nwant %+v", cls, got, want[cls])
		}
	}
	if err := col.Reconcile(); err != nil {
		t.Errorf("Reconcile: %v", err)
	}
	if col.UncoveredMisses != 3 {
		t.Errorf("UncoveredMisses = %d, want 3 (A cold, A harmful, G cold)", col.UncoveredMisses)
	}
	if got := col.Coverage(); got != 0.4 {
		t.Errorf("Coverage = %v, want 0.4 (2 covered / 5 demand misses)", got)
	}
	if got := col.Classes[obs.ClassSSST].Accuracy(); got != 0.5 {
		t.Errorf("SSST accuracy = %v, want 0.5", got)
	}
	if got := col.Classes[obs.ClassSSST].Timeliness(); got != 1.0 {
		t.Errorf("SSST timeliness = %v, want 1", got)
	}
	if got := col.Classes[obs.ClassPMST].Timeliness(); got != 0 {
		t.Errorf("PMST timeliness = %v, want 0 (only a late hit)", got)
	}
	if got := col.ClassCoverage(obs.ClassPMST); got != 0.2 {
		t.Errorf("PMST coverage = %v, want 0.2", got)
	}

	if len(col.Levels) != 1 {
		t.Fatalf("levels reported = %d, want 1", len(col.Levels))
	}
	l1 := col.Levels[0]
	if l1.Hits != 1 || l1.Misses != 4 {
		t.Errorf("L1 hits/misses = %d/%d, want 1/4", l1.Hits, l1.Misses)
	}
	if l1.PFHits[obs.ClassSSST] != 1 {
		t.Errorf("L1 PFHits[SSST] = %d, want 1 (the B touch)", l1.PFHits[obs.ClassSSST])
	}
	if l1.PFEvictedUnused[obs.ClassSSST] != 1 {
		t.Errorf("L1 PFEvictedUnused[SSST] = %d, want 1 (F)", l1.PFEvictedUnused[obs.ClassSSST])
	}
	if l1.PFResident[obs.ClassWSST] != 1 {
		t.Errorf("L1 PFResident[WSST] = %d, want 1 (D)", l1.PFResident[obs.ClassWSST])
	}

	// Legacy counters still see every attempt and both drops.
	if h.Prefetches != 7 || h.PrefetchDrops != 2 {
		t.Errorf("legacy attempts/drops = %d/%d, want 7/2", h.Prefetches, h.PrefetchDrops)
	}
}

// TestEffectivenessResetClearsObservation checks Reset empties the MSHR
// array (which carries each fill's class) and the victim table so a reused
// hierarchy starts with a clean slate.
func TestEffectivenessResetClearsObservation(t *testing.T) {
	h := NewHierarchy(HierarchyConfig{
		Levels:     []Config{{Name: "L1D", Size: 256, Assoc: 1, LineSize: 64, HitLatency: 2}},
		MemLatency: 100,
	})
	col := obs.NewCollector(nil)
	h.EnableObs(col)
	h.PrefetchClass(0x40, 0, obs.ClassSSST)
	h.Reset()
	if len(h.mshrs) != 0 || h.victims.n != 0 {
		t.Fatal("Reset left observation state behind")
	}
	// After reset the hierarchy must still observe into the same collector.
	h.PrefetchClass(0x80, 0, obs.ClassPMST)
	h.CompleteInflight(200)
	h.Load(0x80, 300)
	h.FinishObs(400)
	if col.Classes[obs.ClassPMST].Useful != 1 {
		t.Errorf("post-reset useful = %d, want 1", col.Classes[obs.ClassPMST].Useful)
	}
}
