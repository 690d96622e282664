package experiments

import (
	"reflect"
	"testing"

	"stridepf/internal/core"
	"stridepf/internal/hwpf"
	"stridepf/internal/machine"
	"stridepf/internal/obs"
)

// TestArenaRowMatchesStandaloneRuns is the roster form of the simcheck
// lanes property: every arena cell of a workload, read from the row's one
// lane execution, equals the cell computed from a standalone baseline run
// and a standalone scheme run on machines of their own.
func TestArenaRowMatchesStandaloneRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	const name = "197.parser"
	s := NewSession(Config{Workloads: []string{name}})
	w, err := s.workload(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range ArenaHierarchies() {
		base, err := core.Execute(w.Program(), w, w.Ref(), machine.Config{Hierarchy: h.Config})
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range hwpf.Schemes() {
			got, err := s.ArenaCell(ctx, name, h.Name, scheme)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := hwpf.NewScheme(scheme, hwpf.Config{})
			col := obs.NewCollector(nil)
			run, err := core.Execute(w.Program(), w, w.Ref(),
				machine.Config{Hierarchy: h.Config, NewHWPrefetch: func() machine.HWPrefetcher { return p }, Obs: col})
			if err != nil {
				t.Fatal(err)
			}
			hw := col.Classes[obs.ClassHW]
			want := &ArenaCell{
				Speedup:         float64(base.Stats.Cycles) / float64(run.Stats.Cycles),
				Accuracy:        hw.Accuracy(),
				Coverage:        col.ClassCoverage(obs.ClassHW),
				Timeliness:      hw.Timeliness(),
				Stats:           hw,
				UncoveredMisses: col.UncoveredMisses,
				Run:             run,
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s|%s: lane cell differs from standalone runs\nlane       %+v\nstandalone %+v",
					h.Name, scheme, got, want)
			}
		}
	}
}
