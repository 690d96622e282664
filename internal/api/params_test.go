package api

import (
	"math"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"
)

func known(names ...string) func(string) bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return func(n string) bool { return set[n] }
}

func TestDecodeParamsRoster(t *testing.T) {
	spec := ParamSpec{
		Workloads:        true,
		DefaultWorkloads: []string{"181.mcf", "197.parser"},
		KnownWorkload:    known("181.mcf", "197.parser", "164.gzip"),
	}
	cases := []struct {
		raw     string
		want    []string
		wantErr string
	}{
		{"", []string{"181.mcf", "197.parser"}, ""},
		{"197.parser,181.mcf", []string{"181.mcf", "197.parser"}, ""},
		{" 164.gzip , 164.gzip ,", []string{"164.gzip"}, ""},
		{"nope", nil, `unknown workload "nope"`},
		{" , ,", nil, "empty workload selection"},
	}
	for _, tc := range cases {
		q := url.Values{}
		if tc.raw != "" {
			q.Set("workloads", tc.raw)
		}
		p, err := DecodeParams(q, spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Message, tc.wantErr) {
				t.Errorf("workloads=%q: err = %v, want containing %q", tc.raw, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("workloads=%q: %v", tc.raw, err)
			continue
		}
		if !reflect.DeepEqual(p.Workloads, tc.want) {
			t.Errorf("workloads=%q: got %v, want %v", tc.raw, p.Workloads, tc.want)
		}
	}
}

func TestDecodeParamsFormat(t *testing.T) {
	spec := ParamSpec{Formats: []string{"text", "csv", "jsonl"}}
	for raw, want := range map[string]string{"": "text", "text": "text", "csv": "csv", "jsonl": "jsonl"} {
		q := url.Values{}
		if raw != "" {
			q.Set("format", raw)
		}
		p, err := DecodeParams(q, spec)
		if err != nil || p.Format != want {
			t.Errorf("format=%q: got (%q, %v), want %q", raw, p.Format, err, want)
		}
	}
	if _, err := DecodeParams(url.Values{"format": {"xml"}}, spec); err == nil || err.Status != 400 {
		t.Errorf("format=xml: err = %v, want 400", err)
	}
}

func TestDecodeParamsWSST(t *testing.T) {
	spec := ParamSpec{WSST: true}
	for raw, want := range map[string]bool{"": false, "0": false, "false": false, "1": true, "true": true} {
		q := url.Values{}
		if raw != "" {
			q.Set("wsst", raw)
		}
		p, err := DecodeParams(q, spec)
		if err != nil || p.WSST != want {
			t.Errorf("wsst=%q: got (%v, %v), want %v", raw, p.WSST, err, want)
		}
	}
	if _, err := DecodeParams(url.Values{"wsst": {"yes"}}, spec); err == nil {
		t.Error("wsst=yes must be rejected")
	}
}

func TestDecodeParamsPlanKey(t *testing.T) {
	spec := ParamSpec{PlanKey: true, KnownWorkload: known("181.mcf"), Epoch: true,
		Wait: true, MaxWait: 30 * time.Second}

	p, err := DecodeParams(url.Values{
		"workload": {"181.mcf"}, "config": {"base"}, "from": {"7"},
		"mode": {"poll"}, "wait": {"2.5"},
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workload != "181.mcf" || p.Config != "base" || p.From != 7 ||
		p.Mode != "poll" || p.Wait != 2500*time.Millisecond {
		t.Errorf("got %+v", p)
	}

	// Absent wait defaults to the spec max; oversized wait clamps to it.
	p, err = DecodeParams(url.Values{"workload": {"181.mcf"}, "config": {"base"}}, spec)
	if err != nil || p.Wait != 30*time.Second || p.Mode != "" || p.From != 0 {
		t.Errorf("defaults: got (%+v, %v)", p, err)
	}
	p, err = DecodeParams(url.Values{"workload": {"181.mcf"}, "config": {"base"}, "wait": {"9999"}}, spec)
	if err != nil || p.Wait != 30*time.Second {
		t.Errorf("clamp: got (%v, %v)", p.Wait, err)
	}

	bad := []url.Values{
		{"config": {"base"}},                                              // missing workload
		{"workload": {"181.mcf"}},                                         // missing config
		{"workload": {"x"}, "config": {"base"}},                           // unknown workload
		{"workload": {"181.mcf"}, "config": {"base"}, "from": {"-1"}},     // bad epoch
		{"workload": {"181.mcf"}, "config": {"base"}, "mode": {"push"}},   // bad mode
		{"workload": {"181.mcf"}, "config": {"base"}, "wait": {"-3"}},     // negative wait
		{"workload": {"181.mcf"}, "config": {"base"}, "wait": {"a lot"}},  // unparsable wait
		{"workload": {"181.mcf"}, "config": {"base"}, "from": {"1.5e10"}}, // non-integer epoch
	}
	for _, q := range bad {
		if _, err := DecodeParams(q, spec); err == nil {
			t.Errorf("query %v must be rejected", q)
		}
	}

	// Unknown workload on the plan key is a 404 unknown_workload, matching
	// the path-addressed endpoints.
	_, err = DecodeParams(url.Values{"workload": {"x"}, "config": {"base"}}, spec)
	if err == nil || err.Status != 404 || err.Code != CodeUnknownWorkload {
		t.Errorf("unknown plan workload: %v", err)
	}
}

// TestDecodeParamsWaitBounds: ?wait= is clamped to MaxWait before the
// Duration conversion, so huge values cannot overflow into a negative
// wait, and non-finite values are rejected.
func TestDecodeParamsWaitBounds(t *testing.T) {
	const max = 30 * time.Second
	cases := []struct {
		wait    string
		maxWait time.Duration
		want    time.Duration
		bad     bool
	}{
		{wait: "0", maxWait: max, want: 0},
		{wait: "29.5", maxWait: max, want: 29500 * time.Millisecond},
		{wait: "1e10", maxWait: max, want: max},
		{wait: "9.3e9", maxWait: max, want: max},
		{wait: "1e300", maxWait: max, want: max},
		{wait: "1e10", want: time.Duration(math.MaxInt64)},
		{wait: "9.2e9", want: time.Duration(9.2e18)},
		{wait: "inf", maxWait: max, bad: true},
		{wait: "+Inf", bad: true},
		{wait: "-inf", maxWait: max, bad: true},
		{wait: "NaN", maxWait: max, bad: true},
		{wait: "nan", bad: true},
		{wait: "1e400", maxWait: max, bad: true},
		{wait: "-0.5", maxWait: max, bad: true},
	}
	for _, tc := range cases {
		spec := ParamSpec{Wait: true, MaxWait: tc.maxWait}
		p, err := DecodeParams(url.Values{"wait": {tc.wait}}, spec)
		if tc.bad {
			if err == nil || err.Status != 400 || err.Code != CodeBadRequest {
				t.Errorf("wait=%s (max %v): got (%v, %v), want a 400 %s", tc.wait, tc.maxWait, p.Wait, err, CodeBadRequest)
			}
			continue
		}
		if err != nil || p.Wait != tc.want {
			t.Errorf("wait=%s (max %v): got (%v, %v), want %v", tc.wait, tc.maxWait, p.Wait, err, tc.want)
		}
	}
}
