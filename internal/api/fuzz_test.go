package api

import (
	"net/url"
	"sort"
	"testing"
	"time"
)

// fuzzSpecs are the query shapes the daemon decodes: a roster endpoint
// with formats and the wsst flag, a plan endpoint with a clamped wait, an
// unclamped wait, and a roster that accepts any name.
func fuzzSpecs() []ParamSpec {
	roster := known("164.gzip", "181.mcf", "197.parser")
	return []ParamSpec{
		{Workloads: true, DefaultWorkloads: []string{"181.mcf", "197.parser"}, KnownWorkload: roster,
			Formats: []string{"text", "csv", "jsonl"}, WSST: true},
		{PlanKey: true, KnownWorkload: roster, Epoch: true, Wait: true, MaxWait: 30 * time.Second},
		{Epoch: true, Wait: true},
		{Workloads: true, DefaultWorkloads: []string{"a"}},
	}
}

// FuzzDecodeParams: DecodeParams never panics on any query string. A
// decoded query has a sorted, deduplicated roster of known workloads, a
// wait within [0, MaxWait] when MaxWait is set (never negative), a mode of
// "" or "poll" and one of the spec's formats; a rejected one is a 400 or
// 404 envelope error with a code.
func FuzzDecodeParams(f *testing.F) {
	for _, seed := range []string{
		"",
		"workloads=197.parser,181.mcf&format=csv&wsst=1",
		"workloads=%20,%20&format=xml",
		"workload=181.mcf&config=base&from=7&mode=poll&wait=2.5",
		"workload=181.mcf&config=base&wait=1e10",
		"wait=NaN&mode=sse&from=18446744073709551615",
		"wait=inf&from=-1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		for _, spec := range fuzzSpecs() {
			p, err := DecodeParams(q, spec)
			if err != nil {
				if (err.Status != 400 && err.Status != 404) || err.Code == "" {
					t.Fatalf("%q: error %d %q, want a 400 or 404 with a code", raw, err.Status, err.Code)
				}
				continue
			}
			if !sort.StringsAreSorted(p.Workloads) {
				t.Fatalf("%q: roster %q not sorted", raw, p.Workloads)
			}
			for i, w := range p.Workloads {
				if i > 0 && p.Workloads[i-1] == w {
					t.Fatalf("%q: roster %q has duplicates", raw, p.Workloads)
				}
				if spec.KnownWorkload != nil && !spec.KnownWorkload(w) {
					t.Fatalf("%q: roster has unknown workload %q", raw, w)
				}
			}
			if spec.Workloads && len(p.Workloads) == 0 {
				t.Fatalf("%q: empty roster accepted", raw)
			}
			if p.Wait < 0 || (spec.MaxWait > 0 && p.Wait > spec.MaxWait) {
				t.Fatalf("%q: wait %v outside [0, %v]", raw, p.Wait, spec.MaxWait)
			}
			if p.Mode != "" && p.Mode != "poll" {
				t.Fatalf("%q: mode %q", raw, p.Mode)
			}
			if len(spec.Formats) > 0 {
				ok := false
				for _, f := range spec.Formats {
					ok = ok || p.Format == f
				}
				if !ok {
					t.Fatalf("%q: format %q not among %q", raw, p.Format, spec.Formats)
				}
			}
		}
	})
}
