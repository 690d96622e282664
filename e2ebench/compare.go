package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// workloadRuns is what a run-record file holds for one workload: each
// metric's values over its runs, and the operations attempted and failed in
// them.
type workloadRuns struct {
	metrics           map[string][]float64
	attempted, failed int
}

// failedFrac is the share of attempted operations that failed.
func (r *workloadRuns) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// loadRecords reads a run-record file into its runs per workload.
func loadRecords(path string) (map[string]*workloadRuns, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*workloadRuns{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		r := out[rec.Workload]
		if r == nil {
			r = &workloadRuns{metrics: map[string][]float64{}}
			out[rec.Workload] = r
		}
		r.attempted += rec.Result.Attempted
		r.failed += rec.Result.Failed
		for name, mv := range rec.Result.Metrics {
			r.metrics[name] = append(r.metrics[name], mv.Value)
		}
	}
	return out, sc.Err()
}

// setupFloorS is the least set-up regression that counts, in seconds: the
// simulation workloads set up in milliseconds, where a relative bound
// alone would flag scheduler noise.
const setupFloorS = 0.05

// verdict judges one (workload, metric) pair. Worse means the new median
// is worse than the old by more than the bound (for setup_s, and by more
// than setupFloorS); a gain must exceed the old runs' own interquartile
// spread. When that spread alone exceeds the bound, the pair is
// unresolved, unless every new run beats every old one. Per-layer metrics
// have no bound and are only reported.
func verdict(m benchMetric, old, cur []float64) string {
	if m.Bound == 0 {
		return "info"
	}
	oldMed, curMed := median(old), median(cur)
	if m.Name == "setup_s" && math.Abs(curMed-oldMed) <= setupFloorS {
		return "same"
	}
	worse := (curMed - oldMed) / oldMed
	beats := func(a, b float64) bool { return a < b }
	if m.Better == "higher" {
		worse = -worse
		beats = func(a, b float64) bool { return a > b }
	}
	if spread(old) > m.Bound {
		bestOld, worstCur := slices.Min(old), slices.Max(cur)
		if m.Better == "higher" {
			bestOld, worstCur = slices.Max(old), slices.Min(cur)
		}
		if beats(worstCur, bestOld) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case -worse > spread(old):
		return "better"
	}
	return "same"
}

// compare prints, per workload and declared metric, the medians of the
// old and new run records and the verdict, taking each metric's direction
// and bound from BENCHMARK.json. Each workload's first row compares the
// share of failed operations, which may not rise at all. It reports
// whether any row got worse.
func compare(w io.Writer, root, oldPath, newPath string) (bool, error) {
	bf, err := readBenchFile(root)
	if err != nil {
		return false, err
	}
	old, err := loadRecords(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadRecords(newPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-26s %12s %12s %8s %5s  %s\n", "workload", "metric", "old", "new", "delta", "runs", "verdict")
	for _, wl := range names {
		if old[wl] == nil {
			continue
		}
		of, cf := old[wl].failedFrac(), cur[wl].failedFrac()
		v := "same"
		if cf > of {
			v, anyWorse = "worse", true
		}
		fmt.Fprintf(w, "%-14s %-26s %12.5g %12.5g %8s %5s  %s\n", wl, "failed_frac", of, cf, "", "", v)
		for _, m := range append(append([]benchMetric(nil), bf.EndToEnd...), bf.PerLayer...) {
			o, c := old[wl].metrics[m.Name], cur[wl].metrics[m.Name]
			if len(o) == 0 || len(c) == 0 {
				continue
			}
			v := verdict(m, o, c)
			anyWorse = anyWorse || v == "worse"
			delta := 0.0
			if om := median(o); om != 0 {
				delta = 100 * (median(c) - om) / om
			}
			fmt.Fprintf(w, "%-14s %-26s %12.5g %12.5g %+7.1f%% %2d/%-2d  %s\n",
				wl, m.Name, median(o), median(c), delta, len(o), len(c), v)
		}
	}
	return anyWorse, nil
}
