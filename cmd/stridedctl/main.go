// Command stridedctl is the operator CLI for a strided fleet, built on
// the resilient client in internal/client: every request retries with
// capped exponential backoff and jitter, honours Retry-After, and shard
// uploads carry idempotency keys so a retried push never double-merges.
//
// Usage:
//
//	stridedctl [-server http://localhost:8471] [-servers url1,url2,...]
//	           [-attempts N] [-timeout D] <command> [args]
//
// With -servers the CLI routes by the same consistent-hash ring the
// resilient clients use: each (workload, config) aggregate lives on
// exactly one node, keyed commands (push, pull, classify) go straight to
// the owner, and list/health fan out across the fleet.
//
// Commands:
//
//	health                              per-node liveness and load counters
//	push <workload> <config> <file...>  upload profile shards (strideprof
//	                                    output); several files go up as one
//	                                    batch per owning node
//	pull <workload> <config> [file]     download the merged aggregate
//	list                                list stored aggregates fleet-wide
//	figure <name> [-format csv|jsonl] [-workloads a,b]
//	classify <workload> <config>        per-load classification decisions
//	metrics                             prefetch-effectiveness roll-up
//	watch <workload> <config> [-from N] [-deltas N] [-measure]
//	                                    subscribe to live plan deltas; with
//	                                    -measure, re-run prefetch insertion
//	                                    per delta, measure the speedup and
//	                                    report it to /v1/plan/feedback
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"stridepf/internal/api"
	"stridepf/internal/client"
	"stridepf/internal/core"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
	"stridepf/internal/workloads"
)

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("stridedctl", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		serverURL  = fs.String("server", "http://localhost:8471", "strided base URL (single node)")
		serversF   = fs.String("servers", "", "comma-separated strided base URLs; overrides -server and routes aggregates to their ring owner")
		attempts   = fs.Int("attempts", 8, "max attempts per request")
		timeout    = fs.Duration("timeout", 2*time.Minute, "overall budget per command")
		backoff    = fs.Duration("backoff", 100*time.Millisecond, "base retry backoff")
		backoffCap = fs.Duration("backoff-cap", 10*time.Second, "retry backoff ceiling")
	)
	fs.Usage = func() {
		fmt.Fprintln(out, "usage: stridedctl [flags] <health|push|pull|list|figure|classify|metrics|watch> [args]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return err
	}
	args := fs.Args()
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}

	nodes := []string{*serverURL}
	if *serversF != "" {
		nodes = nodes[:0]
		for _, n := range strings.Split(*serversF, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, n)
			}
		}
	}
	fleet, err := client.NewFleet(client.Config{
		MaxAttempts: *attempts,
		BackoffBase: *backoff,
		BackoffCap:  *backoffCap,
	}, nodes)
	if err != nil {
		return err
	}
	multi := len(fleet.Nodes()) > 1
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "health":
		healths, herrs := fleet.Health(ctx)
		for _, node := range fleet.Nodes() {
			if multi {
				fmt.Fprintf(out, "== %s\n", node)
			}
			if err, down := herrs[node]; down {
				if !multi {
					return err
				}
				fmt.Fprintf(out, "unreachable: %v\n", err)
				continue
			}
			h := healths[node]
			fmt.Fprintf(out, "status: %s\nuptime_seconds: %d\nprofiles: %d\nin_flight: %d\nqueued: %d\nserved: %d\nrejected: %d\n",
				h.Status, h.UptimeSeconds, h.Profiles, h.InFlight, h.Queued, h.Served, h.Rejected)
		}
		if len(herrs) > 0 {
			return fmt.Errorf("%d of %d nodes unreachable", len(herrs), len(fleet.Nodes()))
		}
		return nil

	case "push":
		if len(rest) < 3 {
			return fmt.Errorf("usage: stridedctl push <workload> <config> <profile.json...>")
		}
		workload, config, files := rest[0], rest[1], rest[2:]
		if len(files) == 1 {
			prof, err := profile.Load(files[0])
			if err != nil {
				return err
			}
			info, err := fleet.For(workload, config).UploadShard(ctx, workload, config, prof)
			if err != nil {
				return err
			}
			verb := "merged"
			if info.Deduped {
				verb = "already merged (idempotent replay)"
			}
			fmt.Fprintf(out, "%s/%s: %s, version %d (%d shards)\n",
				workload, config, verb, info.Version, info.Shards)
			return nil
		}
		shards := make([]client.BatchShard, len(files))
		for i, f := range files {
			prof, err := profile.Load(f)
			if err != nil {
				return err
			}
			shards[i] = client.BatchShard{Workload: workload, Config: config, Profile: prof}
		}
		results, err := fleet.UploadBatch(ctx, shards)
		if err != nil {
			return err
		}
		failed := 0
		for i, res := range results {
			if res.Err != "" {
				failed++
				fmt.Fprintf(out, "%s: rejected: %s\n", files[i], res.Err)
				continue
			}
			verb := "merged"
			if res.Info.Deduped {
				verb = "already merged (idempotent replay)"
			}
			fmt.Fprintf(out, "%s: %s, version %d (%d shards)\n",
				files[i], verb, res.Info.Version, res.Info.Shards)
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d shards rejected", failed, len(files))
		}
		return nil

	case "pull":
		if len(rest) != 2 && len(rest) != 3 {
			return fmt.Errorf("usage: stridedctl pull <workload> <config> [out.json]")
		}
		prof, version, err := fleet.For(rest[0], rest[1]).FetchProfile(ctx, rest[0], rest[1])
		if err != nil {
			return err
		}
		if len(rest) == 3 {
			if err := prof.Save(rest[2]); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s: version %d, %d edges, %d stride summaries\n",
				rest[2], version, prof.Edge.Len(), prof.Stride.Len())
			return nil
		}
		return profile.DefaultCodec.Encode(out, prof)

	case "list":
		infos, err := fleet.ListProfiles(ctx)
		if err != nil {
			return err
		}
		if len(infos) == 0 {
			fmt.Fprintln(out, "no profiles stored")
			return nil
		}
		for _, in := range infos {
			fmt.Fprintf(out, "%-13s %-18s version %-3d %d shards (fine-interval %d)\n",
				in.Workload, in.Config, in.Version, in.Shards, in.FineInterval)
		}
		return nil

	case "figure":
		ffs := flag.NewFlagSet("figure", flag.ContinueOnError)
		ffs.SetOutput(out)
		format := ffs.String("format", "", "output format: csv or jsonl (default: text)")
		wls := ffs.String("workloads", "", "workload roster override (comma-separated)")
		if err := ffs.Parse(rest); err != nil {
			return err
		}
		if ffs.NArg() != 1 {
			return fmt.Errorf("usage: stridedctl figure <name> [-format csv|jsonl] [-workloads a,b]")
		}
		var roster []string
		if *wls != "" {
			roster = []string{*wls}
		}
		// Figures are compute queries, not keyed data: any node can answer;
		// the first (lowest-sorted) node keeps the choice deterministic.
		text, err := fleet.Node(fleet.Nodes()[0]).FigureText(ctx, ffs.Arg(0), *format, roster)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, text)
		return err

	case "classify":
		if len(rest) != 2 {
			return fmt.Errorf("usage: stridedctl classify <workload> <config>")
		}
		rep, err := fleet.For(rest[0], rest[1]).Classify(ctx, rest[0], rest[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s/%s: %d loads classified\n", rep.Workload, rep.Config, len(rep.Decisions))
		for _, d := range rep.Decisions {
			load := fmt.Sprintf("%s#%d", d.Func, d.ID)
			extra := ""
			if d.FilteredBy != "" {
				extra = " filtered-by=" + d.FilteredBy
			}
			fmt.Fprintf(out, "%-24s %-12s stride=%-6d freq=%-8d k=%d%s\n",
				load, d.Class, d.Stride, d.Freq, d.K, extra)
		}
		return nil

	case "watch":
		wfs := flag.NewFlagSet("watch", flag.ContinueOnError)
		wfs.SetOutput(out)
		from := wfs.Uint64("from", 0, "resume after this plan epoch (0 = from the beginning)")
		ndeltas := wfs.Int("deltas", 0, "stop after this many deltas (0 = until the command timeout)")
		measure := wfs.Bool("measure", false, "per delta: fetch the aggregate, re-run prefetch insertion, measure speedup on the ref input and report it as plan feedback")
		if len(rest) < 2 {
			return fmt.Errorf("usage: stridedctl watch <workload> <config> [-from N] [-deltas N] [-measure]")
		}
		workload, config := rest[0], rest[1]
		if err := wfs.Parse(rest[2:]); err != nil {
			return err
		}
		if wfs.NArg() != 0 {
			return fmt.Errorf("usage: stridedctl watch <workload> <config> [-from N] [-deltas N] [-measure]")
		}
		var w core.Workload
		if *measure {
			if w = workloads.Get(workload); w == nil {
				return fmt.Errorf("-measure needs a locally registered workload; %q is not", workload)
			}
		}
		// The owning node is the only one whose watcher sees the
		// aggregate's uploads.
		owner := fleet.For(workload, config)
		seen := 0
		errDone := errors.New("watch budget reached")
		err = owner.Subscribe(ctx, workload, config, *from, func(d api.PlanDelta) error {
			kind := "delta"
			if d.Reset {
				kind = "reset"
			}
			fmt.Fprintf(out, "epoch %d (%s, %d rounds): %d change(s)\n",
				d.Epoch, kind, d.Rounds, len(d.Changes))
			for _, ch := range d.Changes {
				prev := ""
				if ch.PrevClass != "" {
					prev = fmt.Sprintf(" (was %s stride=%d)", ch.PrevClass, ch.PrevStride)
				}
				fmt.Fprintf(out, "  %-24s %-6s stride=%-6d k=%d%s\n",
					fmt.Sprintf("%s#%d", ch.Func, ch.ID), ch.Class, ch.Stride, ch.K, prev)
			}
			if *measure {
				prof, _, err := owner.FetchProfile(ctx, workload, config)
				if err != nil {
					return err
				}
				sp, err := core.MeasureSpeedup(w, w.Ref(), prof, prefetch.Options{}, machine.Config{})
				if err != nil {
					return err
				}
				ack, err := owner.PlanFeedback(ctx, api.PlanFeedback{
					Workload: workload, Config: config, Epoch: d.Epoch,
					Speedup:          sp.Speedup,
					BaseCycles:       sp.Base.Stats.Cycles,
					PrefetchedCycles: sp.Prefetched.Stats.Cycles,
					Inserted:         sp.Feedback.Inserted,
					Source:           "stridedctl",
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "  measured speedup %.3f (%d prefetches inserted); feedback recorded (%d retained)\n",
					sp.Speedup, sp.Feedback.Inserted, ack.Recorded)
			}
			seen++
			if *ndeltas > 0 && seen >= *ndeltas {
				return errDone
			}
			return nil
		})
		if errors.Is(err, errDone) {
			return nil
		}
		return err

	case "metrics":
		raw, err := fleet.Node(fleet.Nodes()[0]).Metrics(ctx)
		if err != nil {
			return err
		}
		_, err = out.Write(append(raw, '\n'))
		return err

	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "stridedctl:", err)
		}
		os.Exit(1)
	}
}
