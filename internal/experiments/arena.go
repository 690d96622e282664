package experiments

import (
	"context"
	"fmt"

	"stridepf/internal/cache"
	"stridepf/internal/core"
	"stridepf/internal/hwpf"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
)

// The prefetcher arena is the scheme × workload × cache-config cross
// product the ROADMAP's "prefetching test bench" item asks for: every
// registered hardware scheme runs the clean binary of every selected
// workload on the reference input under every arena cache configuration,
// scored through the obs layer's accuracy / coverage / timeliness roll-ups
// against a no-prefetcher baseline of the same (workload, cache) cell.

// NamedHierarchy pairs a label with a cache configuration for the arena
// cross product.
type NamedHierarchy struct {
	// Name labels the configuration in row names ("base", "small").
	Name string
	// Config is the hierarchy to simulate.
	Config cache.HierarchyConfig
}

// ArenaHierarchies returns the cache configurations the arena sweeps: the
// paper's Itanium-like hierarchy and a capacity-starved variant where
// prefetch pollution and MSHR pressure actually bite.
func ArenaHierarchies() []NamedHierarchy {
	return []NamedHierarchy{
		{Name: "base", Config: cache.ItaniumConfig()},
		{Name: "small", Config: smallHierarchy()},
	}
}

// smallHierarchy is the pressure configuration: a quarter-size two-way L1,
// a third-size L2, no L3, slower memory and half the fill bandwidth. Under
// it an aggressive scheme's evicted-unused and dropped-MSHR counts — near
// zero on the roomy base hierarchy — separate the schemes.
func smallHierarchy() cache.HierarchyConfig {
	return cache.HierarchyConfig{
		Levels: []cache.Config{
			{Name: "L1D", Size: 4 << 10, Assoc: 2, LineSize: 64, HitLatency: 2},
			{Name: "L2", Size: 32 << 10, Assoc: 4, LineSize: 64, HitLatency: 12},
		},
		MemLatency:   160,
		StoreLatency: 2,
		MaxInFlight:  8,
	}
}

// ArenaCell is one scheme × workload × cache-config measurement.
type ArenaCell struct {
	// Speedup is baseline cycles over prefetched cycles for the cell's
	// (workload, cache config), >1 when the scheme helped.
	Speedup float64
	// Accuracy, Coverage and Timeliness are the obs layer's hwpf-class
	// roll-ups for the run (see package obs).
	Accuracy, Coverage, Timeliness float64
	// Stats is the hwpf-class lifecycle account.
	Stats obs.ClassStats
	// UncoveredMisses is the run's unhelped demand-miss count (the
	// coverage denominator's miss side).
	UncoveredMisses uint64
	// Run is the scheme run's execution snapshot (Run.HWPF carries the
	// scheme-side counters).
	Run core.RunStats
}

// arenaCells is one workload's arena row, keyed "hierarchy|scheme".
type arenaCells map[string]*ArenaCell

// arenaRow returns the memoised arena row of the workload. The whole row
// comes from one execution of the clean binary on the reference input: the
// first arena hierarchy without a prefetcher is the machine's primary
// memory system, and every other configuration rides along as a
// machine.Lane — the remaining no-prefetcher baselines, then each
// hierarchy × scheme cell with a fresh prefetcher and its own collector.
// Each lane's run equals a standalone run of its configuration, so the
// figure is byte-identical to running every cell on its own machine.
func (s *Session) arenaRow(ctx context.Context, wname string) (arenaCells, error) {
	key := "arena|" + wname
	v, err := s.do(ctx, key, func() (any, error) {
		w, err := s.workload(wname)
		if err != nil {
			return nil, err
		}
		hiers := ArenaHierarchies()
		mcfg := s.mcfg(ctx)
		mcfg.Hierarchy = hiers[0].Config
		mcfg.NewHWPrefetch, mcfg.Obs = nil, nil
		mcfg.Lanes = nil
		for _, h := range hiers[1:] {
			mcfg.Lanes = append(mcfg.Lanes, machine.Lane{Hierarchy: h.Config})
		}
		type cellLane struct {
			hier, scheme string
			col          *obs.Collector
		}
		var cells []cellLane
		for _, h := range hiers {
			for _, scheme := range hwpf.Schemes() {
				scheme := scheme
				col := obs.NewCollector(s.cfg.Trace.WithRun(key + "|" + h.Name + "|" + scheme))
				cells = append(cells, cellLane{hier: h.Name, scheme: scheme, col: col})
				mcfg.Lanes = append(mcfg.Lanes, machine.Lane{
					Hierarchy: h.Config,
					Obs:       col,
					NewHWPrefetch: func() machine.HWPrefetcher {
						p, _ := hwpf.NewScheme(scheme, hwpf.Config{})
						return p
					},
				})
			}
		}
		run, err := core.Execute(w.Program(), w, w.Ref(), mcfg)
		if err != nil {
			return nil, ctxErr(ctx, err)
		}
		base := map[string]core.RunStats{hiers[0].Name: run}
		for i, h := range hiers[1:] {
			base[h.Name] = run.Lanes[i]
		}
		row := make(arenaCells, len(cells))
		for i, cl := range cells {
			if err := cl.col.Reconcile(); err != nil {
				return nil, fmt.Errorf("experiments: arena %s/%s/%s: %w", wname, cl.hier, cl.scheme, err)
			}
			if s.cfg.Metrics != nil {
				rep := obs.BuildReport(key+"|"+cl.hier+"|"+cl.scheme, cl.col)
				rep.Workload = wname
				rep.Label = "arena|" + cl.hier + "|" + cl.scheme
				s.cfg.Metrics.Register(rep)
			}
			cr := run.Lanes[len(hiers)-1+i]
			hw := cl.col.Classes[obs.ClassHW]
			row[cl.hier+"|"+cl.scheme] = &ArenaCell{
				Speedup:         float64(base[cl.hier].Stats.Cycles) / float64(cr.Stats.Cycles),
				Accuracy:        hw.Accuracy(),
				Coverage:        cl.col.ClassCoverage(obs.ClassHW),
				Timeliness:      hw.Timeliness(),
				Stats:           hw,
				UncoveredMisses: cl.col.UncoveredMisses,
				Run:             cr,
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(arenaCells), nil
}

// ArenaCell returns the arena measurement of one scheme on one workload
// under one cache config, read from the workload's memoised row (see
// arenaRow). A prefetcher only sees its lane's cache hierarchy, so every
// cell shares the baseline's architectural result by construction; its
// collector must still reconcile.
func (s *Session) ArenaCell(ctx context.Context, wname, hierName, scheme string) (*ArenaCell, error) {
	known := false
	for _, h := range ArenaHierarchies() {
		known = known || h.Name == hierName
	}
	if !known {
		return nil, fmt.Errorf("experiments: unknown arena cache config %q", hierName)
	}
	if _, err := hwpf.NewScheme(scheme, hwpf.Config{}); err != nil {
		return nil, err
	}
	row, err := s.arenaRow(ctx, wname)
	if err != nil {
		return nil, err
	}
	return row[hierName+"|"+scheme], nil
}

// Arena assembles the cross-product figure: one row per workload × cache
// config × scheme, with the speedup / accuracy / coverage / timeliness
// columns. Rows follow the session's workload order, then ArenaHierarchies
// order, then hwpf.Schemes order, so the table is byte-stable.
func (s *Session) Arena(ctx context.Context) (*Table, error) {
	t := &Table{
		Title:   "Prefetcher arena: hardware scheme x workload x cache config (clean binary, ref input)",
		Columns: []string{"speedup", "accuracy", "coverage", "timeliness"},
	}
	for _, wname := range s.names() {
		for _, h := range ArenaHierarchies() {
			for _, scheme := range hwpf.Schemes() {
				cell, err := s.ArenaCell(ctx, wname, h.Name, scheme)
				if err != nil {
					return nil, err
				}
				t.AddRow(wname+"|"+h.Name+"|"+scheme,
					cell.Speedup, cell.Accuracy, cell.Coverage, cell.Timeliness)
			}
		}
	}
	return t, nil
}
