package experiments

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRostersShareOneMemo: two views of one session over overlapping
// rosters, each warming and fetching Figure 16 concurrently as a daemon
// request does, simulate every shared cell once (the session's profiling
// executions and measurement runs equal a fresh session's over the union
// roster), and each view's table equals a fresh serial session's. The
// workloads are the cheapest three, so the test stays on in -short mode
// and the race gate covers concurrent rosters on one memo.
func TestRostersShareOneMemo(t *testing.T) {
	rosters := [][]string{{"164.gzip", "256.bzip2"}, {"176.gcc", "164.gzip"}}
	union := NewSession(Config{Workloads: []string{"164.gzip", "256.bzip2", "176.gcc"}})
	if _, err := union.Figure(ctx, "16"); err != nil {
		t.Fatal(err)
	}

	s := NewSession(Config{})
	got := make([]*Table, len(rosters))
	errs := make([]error, len(rosters))
	var wg sync.WaitGroup
	for i, names := range rosters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := s.Roster(names)
			v.Warm(ctx, 2, "16")
			got[i], errs[i] = v.Figure(ctx, "16")
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.profileRuns.Load(), union.profileRuns.Load(); got != want {
		t.Errorf("overlapping rosters cost %d profiling executions, want the union's %d", got, want)
	}
	if got, want := s.measureRuns.Load(), union.measureRuns.Load(); got != want {
		t.Errorf("overlapping rosters cost %d measurement runs, want the union's %d", got, want)
	}
	for i, names := range rosters {
		want, err := NewSession(Config{Workloads: names}).Figure(ctx, "16")
		if err != nil {
			t.Fatal(err)
		}
		if got[i].String() != want.String() {
			t.Errorf("roster %v: shared-memo table differs from a fresh session's\n--- shared ---\n%s\n--- fresh ---\n%s",
				names, got[i], want)
		}
	}
}

// TestRowOrderAndFanOut: a row computes its base, then its columns. On a
// plain view it runs them in that order and stops at the first error. On a
// view whose spawn hook always finds an idle worker its units run
// concurrently (column 0 waits here for column 2, which a serial row never
// reaches), the values stay in column order, and the error returned is
// still the first in column order, not the first to happen.
func TestRowOrderAndFanOut(t *testing.T) {
	s := NewSession(Config{})
	var ran []int
	errCol1 := errors.New("column 1 failed")
	_, err := s.row(3, func() error { ran = append(ran, -1); return nil }, func(i int) (float64, error) {
		ran = append(ran, i)
		if i == 1 {
			return 0, errCol1
		}
		return 0, nil
	})
	if err != errCol1 || fmt.Sprint(ran) != "[-1 0 1]" {
		t.Errorf("serial row: ran %v and returned %v, want [-1 0 1] and %v", ran, err, errCol1)
	}

	v := s.Roster(nil)
	v.spawn = func(fn func()) bool { go fn(); return true }
	waitFor := func(ch chan struct{}) error {
		select {
		case <-ch:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("columns did not run concurrently")
		}
	}
	col2 := make(chan struct{})
	vals, err := v.row(3, nil, func(i int) (float64, error) {
		switch i {
		case 0:
			if err := waitFor(col2); err != nil {
				return 0, err
			}
		case 2:
			close(col2)
		}
		return float64(10 + i), nil
	})
	if err != nil || fmt.Sprint(vals) != "[10 11 12]" {
		t.Errorf("fanned-out row = %v, %v; want [10 11 12]", vals, err)
	}

	errCol0, errCol2 := errors.New("column 0 failed"), errors.New("column 2 failed")
	col2 = make(chan struct{})
	_, err = v.row(3, nil, func(i int) (float64, error) {
		switch i {
		case 0:
			if err := waitFor(col2); err != nil {
				return 0, err
			}
			return 0, errCol0
		case 2:
			defer close(col2)
			return 0, errCol2
		}
		return 0, nil
	})
	if err != errCol0 {
		t.Errorf("fanned-out row returned %v, want column 0's error %v", err, errCol0)
	}
}
