package profile

import (
	"fmt"
	"sync"

	"stridepf/internal/lfu"
	"stridepf/internal/stride"
)

// Windowed profile aggregation for the online PGO loop. An all-time merge
// is the wrong input for live reclassification: a workload that changes
// phase keeps its old strides in the aggregate forever, and the stale
// frequency mass outvotes the new behaviour indefinitely (the
// multi-stride/phase-drift observation of Blom et al.). A Window instead
// decays the accumulated profile by a constant factor before each new
// shard merges, so history fades geometrically: after a phase change the
// new stride's share of a load's top-stride mass converges toward 1 at
// rate (1-alpha) per round, crossing the paper's SSST threshold within a
// handful of windows instead of never.

// DefaultWindowAlpha is the per-round decay factor applied to the
// accumulated profile before each merge. 0.5 halves history each round:
// re-convergence after a phase change takes ~2-3 rounds against the 0.70
// SSST threshold, while one outlier shard can still never dominate an
// established classification on its own.
const DefaultWindowAlpha = 0.5

// WindowConfig parameterises a Window.
type WindowConfig struct {
	// Alpha is the decay factor in (0, 1]: accumulated counts are scaled
	// by Alpha before each new shard merges. 1 disables decay (all-time
	// merge); zero selects DefaultWindowAlpha.
	Alpha float64
}

func (c WindowConfig) alpha() (float64, error) {
	a := c.Alpha
	if a == 0 {
		a = DefaultWindowAlpha
	}
	if a < 0 || a > 1 {
		return 0, fmt.Errorf("profile: window alpha %v outside (0, 1]", a)
	}
	return a, nil
}

// Window maintains an exponentially-decayed merged profile over a stream
// of shards. Safe for concurrent use.
type Window struct {
	mu     sync.Mutex
	alpha  float64
	rounds int
	acc    *Combined
}

// NewWindow builds a Window.
func NewWindow(cfg WindowConfig) (*Window, error) {
	a, err := cfg.alpha()
	if err != nil {
		return nil, err
	}
	return &Window{alpha: a}, nil
}

// Add decays the accumulated profile and merges one new shard into it,
// returning the post-merge round count. Merge errors (fine-interval
// mismatch) leave the window unchanged.
func (w *Window) Add(shard *Combined) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	decayed := Decay(w.acc, w.alpha)
	merged, err := Merge(decayed, shard)
	if err != nil {
		return w.rounds, err
	}
	w.acc = merged
	w.rounds++
	return w.rounds, nil
}

// Snapshot returns a deep copy of the current decayed aggregate and the
// number of rounds merged so far. The copy is the caller's: mutating it
// cannot corrupt the window.
func (w *Window) Snapshot() (*Combined, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.acc.Clone(), w.rounds
}

// Rounds returns how many shards have merged.
func (w *Window) Rounds() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rounds
}

// Decay returns a copy of c with every frequency counter scaled by alpha
// (floor-truncated; counters reaching zero are dropped, and a load whose
// whole summary decays to zero disappears). Ratios the classifier computes
// (top-stride share, zero-stride share, trip counts) are scale-invariant,
// so decay shifts the balance between old and new evidence without biasing
// any single-source classification. Structural fields (FineInterval,
// AvgRefDistance) pass through unscaled. alpha 1 returns a plain clone;
// nil input returns nil.
func Decay(c *Combined, alpha float64) *Combined {
	if c == nil {
		return nil
	}
	if alpha >= 1 {
		return c.Clone()
	}
	scale := func(v uint64) uint64 { return uint64(float64(v) * alpha) }
	scaleI := func(v int64) int64 {
		if v < 0 {
			return -int64(scale(uint64(-v)))
		}
		return int64(scale(uint64(v)))
	}
	out := &Combined{Interval: c.Interval}
	if c.Edge != nil {
		ep := NewEdgeProfile()
		for k, v := range c.Edge.counts {
			if d := scale(v); d > 0 {
				ep.counts[k] = d
			}
		}
		for fn, v := range c.Edge.entries {
			if d := scale(v); d > 0 {
				ep.entries[fn] = d
			}
		}
		out.Edge = ep
	}
	if c.Stride != nil {
		var sums []stride.Summary
		for _, s := range c.Stride.Summaries() {
			d := stride.Summary{
				Key:            s.Key,
				TopStrides:     decayTops(s.TopStrides, scaleI),
				TotalStrides:   scaleI(s.TotalStrides),
				ZeroStrides:    scaleI(s.ZeroStrides),
				ZeroDiffs:      scaleI(s.ZeroDiffs),
				FineInterval:   s.FineInterval,
				AvgRefDistance: s.AvgRefDistance,
			}
			for _, p := range s.Paths {
				dp := stride.PathSummary{
					ID:           p.ID,
					TopStrides:   decayTops(p.TopStrides, scaleI),
					TotalStrides: scaleI(p.TotalStrides),
					ZeroStrides:  scaleI(p.ZeroStrides),
					ZeroDiffs:    scaleI(p.ZeroDiffs),
					Processed:    scaleI(p.Processed),
				}
				if dp.TotalStrides == 0 && len(dp.TopStrides) == 0 && dp.Processed == 0 {
					continue
				}
				d.Paths = append(d.Paths, dp)
			}
			if d.TotalStrides == 0 && len(d.TopStrides) == 0 {
				continue
			}
			sums = append(sums, d)
		}
		out.Stride = NewStrideProfile(sums)
	}
	return out
}

// decayTops scales each top-stride frequency with scale and drops the
// entries that reach zero; it returns nil when none survives.
func decayTops(tops []lfu.Entry, scale func(int64) int64) []lfu.Entry {
	var out []lfu.Entry
	for _, e := range tops {
		if f := scale(e.Freq); f > 0 {
			out = append(out, lfu.Entry{Value: e.Value, Freq: f})
		}
	}
	return out
}
