package simcheck

import (
	"fmt"

	"stridepf/internal/core"
	"stridepf/internal/instrument"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
	"stridepf/internal/stride"
	"stridepf/internal/workloads"
)

// CheckPathTruth is the ground-truth property of the paths scheme, run
// against the branchy kernel whose per-path behaviour is known in closed
// form (see workloads/branchy.go):
//
//  1. Neutrality — the paths run returns the same checksum as an
//     edge-check run, and its profile with the path buckets stripped is
//     bit-for-bit the edge-check profile (path profiling is a pure
//     refinement of the aggregate).
//  2. Projection — every per-path counter column sums exactly to the
//     aggregate column (buckets attribute samples, never re-count them).
//  3. Discovery — the aggregate classifies PMST, yet every observed path
//     bucket is a pure single stride equal to the arm stride its path id
//     implies, and both arms' buckets are present. With the default
//     two-iteration span the observable ids are exactly {0, 1, N, N+1}
//     with N=3, and an id's current-iteration prefix (id mod N) selects
//     the arm.
//  4. Feedback — the path-split pass splits the load into per-path SSSTs
//     under the paths profile, falls back to plain PMST under the
//     bucket-less control profile, and the split binary preserves the
//     program's checksum on the ref input.
func CheckPathTruth(seed uint64) error {
	w := workloads.NewBranchy(seed)
	sA, sB, _, _ := workloads.BranchyParams(seed)

	ppr, err := core.ProfilePass(w, w.Train(), instrument.Options{Method: instrument.Paths}, machine.Config{})
	if err != nil {
		return fmt.Errorf("paths profiling run: %w", err)
	}
	cpr, err := core.ProfilePass(w, w.Train(), instrument.Options{Method: instrument.EdgeCheck}, machine.Config{})
	if err != nil {
		return fmt.Errorf("edge-check profiling run: %w", err)
	}
	if ppr.Stats.Ret != cpr.Stats.Ret {
		return fmt.Errorf("paths run checksum %d, edge-check run %d", ppr.Stats.Ret, cpr.Stats.Ret)
	}

	// 1. Aggregate neutrality, bit-for-bit over the serialised profiles.
	pfp, err := profileFingerprint(StripPaths(ppr.Profiles))
	if err != nil {
		return err
	}
	cfp, err := profileFingerprint(cpr.Profiles)
	if err != nil {
		return err
	}
	if pfp != cfp {
		return fmt.Errorf("paths profile with buckets stripped differs from the edge-check profile")
	}

	if len(ppr.Instr.Profiled) != 1 {
		return fmt.Errorf("paths run profiled %d loads, branchy has 1", len(ppr.Instr.Profiled))
	}
	key := ppr.Instr.Profiled[0].Key
	sum, ok := ppr.Profiles.Stride.Lookup(key)
	if !ok {
		return fmt.Errorf("no stride summary for the branchy load %s#%d", key.Func, key.ID)
	}

	// 2. Exact projection.
	proc, total, zeros, zeroDiffs := stride.ProjectPaths(sum)
	if total != sum.TotalStrides || zeros != sum.ZeroStrides || zeroDiffs != sum.ZeroDiffs {
		return fmt.Errorf("bucket sums %d/%d/%d disagree with aggregate %d/%d/%d",
			total, zeros, zeroDiffs, sum.TotalStrides, sum.ZeroStrides, sum.ZeroDiffs)
	}
	if proc <= 0 {
		return fmt.Errorf("no processed samples attributed to any path bucket")
	}

	// 3. Aggregate PMST, per-path pure SSST.
	th := prefetch.DefaultThresholds()
	freq := ppr.Stats.LoadCounts[key]
	cls := prefetch.Classify(sum, freq, float64(freq), true, th)
	if cls.Class != prefetch.PMST {
		return fmt.Errorf("aggregate classifies %v (top1 %.3f), ground truth is PMST",
			cls.Class, cls.Top1Ratio)
	}
	const n = 3 // paths per iteration: arm A, arm B, exit
	wantIDs := map[int64]int64{0: sA, 1: sB, n: sA, n + 1: sB}
	seen := map[int64]bool{}
	armSeen := map[int64]bool{}
	for _, p := range sum.Paths {
		want, known := wantIDs[p.ID]
		if !known {
			return fmt.Errorf("unexpected path id %d (want ids 0, 1, %d, %d)", p.ID, n, n+1)
		}
		seen[p.ID] = true
		if p.TotalStrides <= 0 {
			continue
		}
		if len(p.TopStrides) != 1 || p.TopStrides[0].Value != want ||
			p.TopStrides[0].Freq != p.TotalStrides {
			return fmt.Errorf("path %d bucket not a pure stride-%d run: %+v", p.ID, want, p.TopStrides)
		}
		armSeen[want] = true
	}
	for id := range wantIDs {
		if !seen[id] {
			return fmt.Errorf("path id %d never observed", id)
		}
	}
	if !armSeen[sA] || !armSeen[sB] {
		return fmt.Errorf("both arm strides must appear in buckets; saw %v", armSeen)
	}

	// 4. Feedback: split under paths profile, plain PMST under control.
	popts := prefetch.Options{EnablePathSplit: true}
	fb, err := prefetch.Apply(w.Program(), ppr.Profiles, popts)
	if err != nil {
		return fmt.Errorf("path-split feedback: %w", err)
	}
	d := decisionFor(fb, key)
	if d == nil || d.PathSSSTs < 2 || d.Class != prefetch.PMST {
		return fmt.Errorf("path-split decision = %+v, want PMST split into >=2 path SSSTs", d)
	}
	if fb.PathSplitLoads != 1 {
		return fmt.Errorf("PathSplitLoads = %d, want 1", fb.PathSplitLoads)
	}
	cfb, err := prefetch.Apply(w.Program(), cpr.Profiles, popts)
	if err != nil {
		return fmt.Errorf("control feedback: %w", err)
	}
	cd := decisionFor(cfb, key)
	if cd == nil || cd.PathSSSTs != 0 || cd.Class != prefetch.PMST {
		return fmt.Errorf("control decision = %+v, want plain PMST with no split", cd)
	}

	clean, err := core.Execute(w.Program(), w, w.Ref(), machine.Config{})
	if err != nil {
		return fmt.Errorf("clean ref run: %w", err)
	}
	split, err := core.Execute(fb.Prog, w, w.Ref(), machine.Config{})
	if err != nil {
		return fmt.Errorf("split ref run: %w", err)
	}
	if clean.Ret != split.Ret {
		return fmt.Errorf("split binary returned %d, clean returned %d", split.Ret, clean.Ret)
	}
	return nil
}

// decisionFor returns the feedback decision for one load key.
func decisionFor(res *prefetch.Result, key machine.LoadKey) *prefetch.Decision {
	for i := range res.Decisions {
		if res.Decisions[i].Key == key {
			return &res.Decisions[i]
		}
	}
	return nil
}

// StripPaths returns a deep copy of c with every summary's path buckets
// removed — the projection the differential tests compare against plain
// edge-check profiles.
func StripPaths(c *profile.Combined) *profile.Combined {
	out := c.Clone()
	if out.Stride == nil {
		return out
	}
	sums := out.Stride.Summaries()
	for i := range sums {
		sums[i].Paths = nil
	}
	out.Stride = profile.NewStrideProfile(sums)
	return out
}
