// Command strided is the stride-profiling service daemon: an HTTP/JSON
// front end to the profiling pipeline. Producers POST profile shards to
// it (a networked profmerge), and consumers query merged profiles,
// per-load classification decisions, the paper's figure tables (byte-
// identical to `experiments -figure N` output) and prefetch-effectiveness
// metrics.
//
// Usage:
//
//	strided [-addr :8471] [-workloads 181.mcf,197.parser] [-j N]
//	        [-max-inflight N] [-max-queued N] [-timeout 5m] [-selfcheck]
//	        [-hwpf scheme] [-store-dir DIR] [-wal-segment-bytes N]
//	        [-wal-snapshot-every N] [-wal-sync]
//	        [-chaos-seed N] [-chaos-scale F]
//
// Endpoints:
//
//	GET  /healthz                             liveness + load counters
//	GET  /obs/metrics                         prefetch-effectiveness roll-up
//	GET  /v1/figures                          figure and format listing
//	GET  /v1/figure/{n}[?format=csv|jsonl][&workloads=a,b]
//	                                          n: 15..25 or "arena" (the
//	                                          prefetcher-arena cross product)
//	GET  /v1/profiles                         stored aggregate listing
//	POST /v1/profiles/batch                   upload many shards atomically
//	                                          retryable (per-shard idem keys)
//	POST /v1/profiles/{workload}/{config}     upload one profile shard
//	GET  /v1/profiles/{workload}/{config}     download merged aggregate
//	GET  /v1/classify/{workload}/{config}     classification decisions
//
// With -store-dir the profile store is durable: every accepted shard is
// appended to a checksummed write-ahead log under DIR before it merges,
// compacted snapshots bound replay time, and a restart recovers the exact
// aggregate state — byte-identical to an offline profmerge of the
// committed shards — even after a kill that tore the last record. Without
// it the store is in-memory and lost on exit.
//
// Simulation-heavy requests (figures, classify) run on a bounded worker
// gate; when the wait queue is full the daemon answers 429 with a
// Retry-After hint. SIGINT/SIGTERM starts a graceful shutdown that stops
// accepting connections and drains in-flight requests.
//
// With -chaos-seed N the daemon runs in self-chaos mode: its listener,
// profile store and worker gate are wrapped with the seeded fault
// injector from internal/chaos, so resilient clients can be exercised
// against a deterministically misbehaving daemon. Never use in
// production; it exists to rehearse failure handling.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stridepf/internal/chaos"
	"stridepf/internal/experiments"
	"stridepf/internal/hwpf"
	"stridepf/internal/server"
	"stridepf/internal/walstore"
)

func main() {
	var (
		addr        = flag.String("addr", ":8471", "listen address")
		workloadsF  = flag.String("workloads", "", "default benchmark roster (comma-separated; default: all)")
		jFlag       = flag.Int("j", 0, "simulation workers per figure request (0 = GOMAXPROCS, 1 = serial)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently executing heavy requests (0 = GOMAXPROCS)")
		maxQueued   = flag.Int("max-queued", 0, "max heavy requests waiting for a slot before 429 (0 = 2*max-inflight)")
		timeout     = flag.Duration("timeout", 10*time.Minute, "per-request timeout for heavy requests (0 = none)")
		drainWait   = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		selfCheck   = flag.Bool("selfcheck", false, "run shadow-model self-checking in every simulation")
		hwpfFlag    = flag.String("hwpf", "", "attach a hardware prefetcher to every simulation: "+strings.Join(hwpf.Schemes(), ", ")+" (default: none)")
		storeDir    = flag.String("store-dir", "", "durable WAL-backed profile store directory (default: in-memory, lost on exit)")
		walSegBytes = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = 4MiB; needs -store-dir)")
		walSnapshot = flag.Int("wal-snapshot-every", 0, "compacted snapshot every N accepted uploads (0 = 256, negative = never; needs -store-dir)")
		walSync     = flag.Bool("wal-sync", false, "fsync every WAL append and snapshot (needs -store-dir)")
		chaosSeed   = flag.Uint64("chaos-seed", 0, "run in self-chaos mode with this fault-injection seed (0 = off)")
		chaosScale  = flag.Float64("chaos-scale", 1, "fault-rate multiplier for -chaos-seed mode")
	)
	flag.Parse()

	lg := log.New(os.Stderr, "strided: ", log.LstdFlags)
	cfg := server.Config{
		MaxInFlight:    *maxInflight,
		MaxQueued:      *maxQueued,
		RequestTimeout: *timeout,
		Log:            lg,
	}
	cfg.Experiments = experiments.Config{Jobs: *jFlag}
	cfg.Experiments.Machine.SelfCheck = *selfCheck
	if *workloadsF != "" {
		cfg.Experiments.Workloads = strings.Split(*workloadsF, ",")
	}
	if *hwpfFlag != "" {
		if _, err := hwpf.NewScheme(*hwpfFlag, hwpf.Config{}); err != nil {
			lg.Fatalf("%v", err)
		}
		cfg.Experiments.HWPF = *hwpfFlag
	}

	// Durable store: WAL-backed, replayed from disk before serving.
	var ws *walstore.Store
	if *storeDir != "" {
		var err error
		ws, err = walstore.Open(*storeDir, walstore.Options{
			SegmentBytes:  *walSegBytes,
			SnapshotEvery: *walSnapshot,
			Sync:          *walSync,
			Log:           lg,
		})
		if err != nil {
			lg.Fatalf("open durable store: %v", err)
		}
		cfg.Store = ws
		lg.Printf("durable store %s: recovered %d aggregate(s) through seq %d",
			*storeDir, len(ws.List()), ws.LastSeq())
	}

	// Self-chaos mode: deterministically misbehave at every seam.
	var plan *chaos.Plan
	if *chaosSeed != 0 {
		plan = chaos.NewPlan(*chaosSeed, chaos.Rule{
			CutRate: 0.01 * *chaosScale, SlowRate: 0.02 * *chaosScale,
			PartialRate: 0.01 * *chaosScale, MaxLatency: 2 * time.Millisecond,
		})
		plan.SetRule("store", chaos.Rule{
			StatusRate: 0.08 * *chaosScale, DropRate: 0.08 * *chaosScale,
			SlowRate: 0.04 * *chaosScale, MaxLatency: time.Millisecond,
		})
		plan.SetRule("gate", chaos.Rule{StatusRate: 0.10 * *chaosScale})
		inner := server.ProfileStore(server.NewStore())
		if ws != nil {
			inner = ws // chaos faults over the durable store
		}
		cfg.Store = &chaos.FlakyStore{Inner: inner, In: plan.Injector("store")}
		gateIn, gateQ := *maxInflight, *maxQueued
		if gateIn <= 0 {
			gateIn = 2
		}
		if gateQ <= 0 {
			gateQ = 2 * gateIn
		}
		cfg.Gate = &chaos.FlakyGate{Inner: server.NewSlotGate(gateIn, gateQ), In: plan.Injector("gate")}
		lg.Printf("SELF-CHAOS MODE: seed=%d scale=%g — do not use in production", *chaosSeed, *chaosScale)
	}

	srv := server.New(cfg)
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		lg.Fatalf("listen: %v", err)
	}
	if plan != nil {
		ln = chaos.WrapListener(ln, plan, "listener")
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	lg.Printf("listening on %s", ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		lg.Fatalf("serve: %v", err)
	case sig := <-sigCh:
		lg.Printf("received %s, draining (budget %s)", sig, *drainWait)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		lg.Printf("shutdown: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		lg.Printf("drain: %v", err)
	}
	if ws != nil {
		if err := ws.Close(); err != nil {
			lg.Printf("close durable store: %v", err)
		}
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		lg.Printf("serve: %v", err)
	}
	if plan != nil {
		for _, r := range plan.Report() {
			lg.Printf("chaos: %-16s %s", r.Site, r.Counts)
		}
	}
	lg.Printf("stopped")
}
