package api

import (
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ParamSpec declares which query parameters an endpoint accepts and how to
// validate them. DecodeParams is the single decoder every handler runs its
// query through, so 400 diagnostics stay consistent across endpoints.
type ParamSpec struct {
	// Workloads enables the ?workloads= roster selection.
	Workloads bool
	// DefaultWorkloads is the roster when ?workloads= is absent.
	DefaultWorkloads []string
	// KnownWorkload validates one roster name; nil accepts any.
	KnownWorkload func(string) bool
	// Formats enables ?format= and lists the accepted values (the empty
	// string is always accepted and maps to Formats[0]).
	Formats []string
	// WSST enables the ?wsst= boolean.
	WSST bool
	// PlanKey enables the mandatory ?workload=/?config= pair plan
	// endpoints address a watcher with.
	PlanKey bool
	// Epoch enables the ?from= resume epoch.
	Epoch bool
	// Wait enables ?wait= (long-poll bound, seconds) and ?mode=; MaxWait
	// clamps the accepted wait.
	Wait    bool
	MaxWait time.Duration
}

// Params is a decoded query string.
type Params struct {
	// Workloads is the validated, deduplicated, sorted roster.
	Workloads []string
	// Format is the requested figure format ("" mapped to the default).
	Format string
	// WSST is the ?wsst= flag.
	WSST bool
	// Workload/Config address a plan watcher.
	Workload string
	Config   string
	// From is the resume epoch (?from=, 0 when absent).
	From uint64
	// Wait is the clamped long-poll bound; Mode is ?mode= ("" or "poll").
	Wait time.Duration
	Mode string
}

// DecodeParams validates a query string against spec. A violation returns
// a 400 bad_request envelope error naming the offending parameter.
func DecodeParams(q url.Values, spec ParamSpec) (Params, *Error) {
	var p Params
	if spec.Workloads {
		ws, err := decodeRoster(q.Get("workloads"), spec)
		if err != nil {
			return p, err
		}
		p.Workloads = ws
	}
	if len(spec.Formats) > 0 {
		f := q.Get("format")
		if f == "" {
			f = spec.Formats[0]
		}
		ok := false
		for _, want := range spec.Formats {
			if f == want {
				ok = true
				break
			}
		}
		if !ok {
			return p, Errorf(http.StatusBadRequest, CodeBadRequest,
				"unknown format %q (want %s)", q.Get("format"), strings.Join(spec.Formats, ", "))
		}
		p.Format = f
	}
	if spec.WSST {
		switch v := q.Get("wsst"); v {
		case "", "0", "false":
		case "1", "true":
			p.WSST = true
		default:
			return p, Errorf(http.StatusBadRequest, CodeBadRequest,
				"bad wsst value %q (want 1, true, 0 or false)", v)
		}
	}
	if spec.PlanKey {
		p.Workload = q.Get("workload")
		p.Config = q.Get("config")
		if p.Workload == "" {
			return p, Errorf(http.StatusBadRequest, CodeBadRequest, "missing workload parameter")
		}
		if p.Config == "" {
			return p, Errorf(http.StatusBadRequest, CodeBadRequest, "missing config parameter")
		}
		if spec.KnownWorkload != nil && !spec.KnownWorkload(p.Workload) {
			return p, Errorf(http.StatusNotFound, CodeUnknownWorkload,
				"unknown workload %q", p.Workload)
		}
	}
	if spec.Epoch {
		if v := q.Get("from"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return p, Errorf(http.StatusBadRequest, CodeBadRequest,
					"bad from epoch %q (want an unsigned integer)", v)
			}
			p.From = n
		}
	}
	if spec.Wait {
		switch m := q.Get("mode"); m {
		case "", "sse":
		case "poll":
			p.Mode = "poll"
		default:
			return p, Errorf(http.StatusBadRequest, CodeBadRequest,
				"bad mode %q (want sse or poll)", m)
		}
		p.Wait = spec.MaxWait
		if v := q.Get("wait"); v != "" {
			secs, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(secs) || math.IsInf(secs, 0) || secs < 0 {
				return p, Errorf(http.StatusBadRequest, CodeBadRequest,
					"bad wait %q (want finite seconds >= 0)", v)
			}
			// Clamp in float: a large wait would overflow the Duration
			// conversion into a negative one.
			limit := time.Duration(math.MaxInt64)
			if spec.MaxWait > 0 {
				limit = spec.MaxWait
			}
			if ns := secs * float64(time.Second); ns < float64(limit) {
				p.Wait = time.Duration(ns)
			} else {
				p.Wait = limit
			}
		}
	}
	return p, nil
}

// decodeRoster resolves ?workloads= against the default, validating names
// and normalising order, which fixes the figure's row order: equivalent
// requests get the same table.
func decodeRoster(raw string, spec ParamSpec) ([]string, *Error) {
	if raw == "" {
		return append([]string(nil), spec.DefaultWorkloads...), nil
	}
	names := strings.Split(raw, ",")
	seen := make(map[string]bool, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" || seen[n] {
			continue
		}
		if spec.KnownWorkload != nil && !spec.KnownWorkload(n) {
			return nil, Errorf(http.StatusBadRequest, CodeUnknownWorkload,
				"unknown workload %q", n)
		}
		seen[n] = true
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, Errorf(http.StatusBadRequest, CodeBadRequest, "empty workload selection")
	}
	sort.Strings(out)
	return out, nil
}
