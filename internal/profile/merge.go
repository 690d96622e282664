package profile

import (
	"fmt"
	"sort"

	"stridepf/internal/lfu"
	"stridepf/internal/machine"
	"stridepf/internal/stride"
)

// Merge combines profiles from several training runs, the standard
// multi-run workflow of production profile-guided optimisation: edge and
// entry counts sum, and stride summaries merge per load by summing their
// counters and re-ranking the combined top strides.
//
// Fine-sampling intervals must agree across runs: the interval is the
// scale factor of every frequency counter (a run at interval F sees one in
// F references), so summing counters taken at different intervals produces
// a profile biased toward the densely sampled run. Merge returns an error
// on the first mismatch rather than silently keeping one interval.
func Merge(profiles ...*Combined) (*Combined, error) {
	out := &Combined{Edge: NewEdgeProfile()}
	entries := make(map[string]uint64)
	sums := make(map[machine.LoadKey]stride.Summary)

	// Interval 0 marks a profile that never went through the runtime
	// (hand-built fixtures); it is compatible with anything. Each profile's
	// interval resolves from its header *and* its summaries (FineInterval),
	// so a sampled shard whose strides were all evicted — header interval
	// set, no summaries — still refuses to merge with a differently-sampled
	// shard.
	interval := 0
	for _, p := range profiles {
		if p == nil {
			continue
		}
		pfi, err := fineInterval(p)
		if err != nil {
			return nil, fmt.Errorf("profile: merge: %w", err)
		}
		if pfi != 0 {
			if interval == 0 {
				interval = pfi
			} else if pfi != interval {
				return nil, fmt.Errorf(
					"profile: cannot merge profiles sampled at fine intervals %d and %d: frequencies are not on a common scale",
					interval, pfi)
			}
		}
		for _, e := range p.Edge.Edges() {
			out.Edge.Set(e.Key, out.Edge.Count(e.Key)+e.Count)
		}
		for fn, c := range p.Edge.entries {
			entries[fn] += c
		}
		for _, s := range p.Stride.Summaries() {
			acc, ok := sums[s.Key]
			if !ok {
				sums[s.Key] = s
				continue
			}
			sums[s.Key] = mergeSummaries(acc, s)
		}
	}
	for fn, c := range entries {
		out.Edge.SetEntryCount(fn, c)
	}
	merged := make([]stride.Summary, 0, len(sums))
	for _, s := range sums {
		merged = append(merged, s)
	}
	out.Stride = NewStrideProfile(merged)
	out.Interval = interval
	return out, nil
}

// maxMergedStrides bounds a merged summary's top-stride list. It is the
// LFU final-table capacity — the most strides any single run's profiler can
// report — not the tighter per-run Top(4) the runtime hands the feedback
// pass: truncating intermediate merges to 4 made multi-way merges
// order-sensitive when frequencies tied at the cut, because which tied
// entry survived an early pairwise merge decided whether a later shard
// could lift it back above the bound.
const maxMergedStrides = lfu.DefaultFinalSize

// mergeTops combines two top-stride lists: frequencies summed per stride,
// ranked by frequency (ties by stride) and cut at maxMergedStrides. The
// result is non-nil even when both lists are empty.
func mergeTops(a, b []lfu.Entry) []lfu.Entry {
	byValue := make(map[int64]int64)
	for _, e := range a {
		byValue[e.Value] += e.Freq
	}
	for _, e := range b {
		byValue[e.Value] += e.Freq
	}
	tops := make([]lfu.Entry, 0, len(byValue))
	for v, f := range byValue {
		tops = append(tops, lfu.Entry{Value: v, Freq: f})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].Freq != tops[j].Freq {
			return tops[i].Freq > tops[j].Freq
		}
		return tops[i].Value < tops[j].Value
	})
	if len(tops) > maxMergedStrides {
		tops = tops[:maxMergedStrides]
	}
	return tops
}

// mergeSummaries combines two stride summaries of the same load.
func mergeSummaries(a, b stride.Summary) stride.Summary {
	total := a.TotalStrides + b.TotalStrides
	var dist float64
	if total > 0 {
		dist = (a.AvgRefDistance*float64(a.TotalStrides) +
			b.AvgRefDistance*float64(b.TotalStrides)) / float64(total)
	}
	fi := a.FineInterval
	if fi == 0 {
		fi = b.FineInterval
	}
	return stride.Summary{
		Key:            a.Key,
		TopStrides:     mergeTops(a.TopStrides, b.TopStrides),
		TotalStrides:   total,
		ZeroStrides:    a.ZeroStrides + b.ZeroStrides,
		ZeroDiffs:      a.ZeroDiffs + b.ZeroDiffs,
		FineInterval:   fi,
		AvgRefDistance: dist,
		Paths:          mergePaths(a.Paths, b.Paths),
	}
}

// mergePaths combines two per-path bucket lists by path id, summing
// counters and re-ranking top strides with the same policy as the
// aggregate merge. Both inputs sorted by id implies the output is too.
func mergePaths(a, b []stride.PathSummary) []stride.PathSummary {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	byID := make(map[int64]stride.PathSummary, len(a)+len(b))
	ids := make([]int64, 0, len(a)+len(b))
	for _, lists := range [][]stride.PathSummary{a, b} {
		for _, p := range lists {
			acc, ok := byID[p.ID]
			if !ok {
				byID[p.ID] = p
				ids = append(ids, p.ID)
				continue
			}
			byID[p.ID] = mergePathSummaries(acc, p)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]stride.PathSummary, 0, len(ids))
	for _, id := range ids {
		out = append(out, byID[id])
	}
	return out
}

func mergePathSummaries(a, b stride.PathSummary) stride.PathSummary {
	return stride.PathSummary{
		ID:           a.ID,
		TopStrides:   mergeTops(a.TopStrides, b.TopStrides),
		TotalStrides: a.TotalStrides + b.TotalStrides,
		ZeroStrides:  a.ZeroStrides + b.ZeroStrides,
		ZeroDiffs:    a.ZeroDiffs + b.ZeroDiffs,
		Processed:    a.Processed + b.Processed,
	}
}
