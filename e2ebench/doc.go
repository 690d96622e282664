// Command e2ebench is the end-to-end performance ledger: it times the jobs
// people actually run (the paper figures, the prefetcher arena, the strided
// daemon under load) and splits each into pipeline-stage and layer costs.
// BENCHMARK.json at the repository root declares its workloads and metrics.
//
// It is a module of its own, with its own go.mod, so the benchmark and its
// build live in this directory alone. Build and run it from the repository
// root with
//
//	bash e2ebench/run.sh [flags]
//
// which builds into .bench_build/ and keeps every file it writes there.
// Being a separate module, its tests do not run under the root's
// `go test ./...`; run them with `cd e2ebench && go test ./...`.
//
// Flags:
//
//	-workload a,b   workloads to run (default all); each runs in child processes
//	-seed N         seed of the generated inputs (default 1)
//	-seconds S      measurement budget per workload (default 30)
//	-trace 0|1      1: run one traced repetition, report the per-layer metrics
//	-trace-dir DIR  where a traced run writes its files (default .bench_build/trace)
//	-o FILE         append one JSON run record per workload to FILE
//	-compare OLD NEW  compare two run-record files (see below)
//
// Output is one "workload metric value unit" line per metric, comment lines
// starting with "#" (the run's environment: nproc, GOMAXPROCS, Go version,
// CPU model, load average at start and end, seed; the percentile and sample
// count behind each latency; any oracle failure), and finally one JSON
// object {"correct", "attempted", "failed", "metrics"}. With several
// workloads the metric keys are prefixed "workload.". The exit status is
// nonzero when any oracle failed.
//
// # Workloads
//
// Every workload runs repetitions of one fixed job, each repetition from a
// fresh session or a fresh daemon, until the budget is spent.
//
//	paper-figures  A serial experiments.Session over the twelve paper workloads, named
//	               explicitly, making the calls experiments.RunAll makes (figure 15, then
//	               16-25). Oracle: the output equals figures_output.txt byte for byte.
//	               Exercises the fused interpreter loop, the stride runtime, the cache and
//	               memory models, instrument and insert; no hardware prefetcher or observer.
//	hwpf-arena     A serial session runs Figure("arena") over the same twelve workloads.
//	               Oracle: e2ebench/testdata/arena_all.golden (experiments -figure arena).
//	               Every run attaches a hardware prefetcher and an obs.Collector, so it
//	               takes the per-instruction reference loop; no stride profiling.
//	strided-mix    server.New on loopback, backed by walstore.Open with production
//	               defaults (no fsync, a snapshot every 256 uploads), under a closed loop
//	               of 2400 requests from 2 connections. Requests take the shapes the
//	               repository's clients give them, in a repeating cycle of four:
//	                 1. strideprof -push: UploadShard of one run of a real aggregate (the
//	                    twelve workloads x {edge-check, sample-edge-check}, each profiled
//	                    on 2 seed-varied train inputs), drawn with the seed;
//	                 2. strideprof -push of a simcheck.DriftKernel run, whose phase
//	                    advances every 6 such pushes;
//	                 3. stridedctl push of several files: UploadBatch of 2-4 runs of one
//	                    real aggregate;
//	                 4. stridedctl classify, pull or figure in rotation: Classify,
//	                    FetchProfile, or a warm figure/17?workloads=197.parser.
//	               The cycle's proportions, the batch sizes and the drift period are
//	               assumptions; no trace of a deployed daemon exists to take them from.
//	               One client.Subscribe stream follows the drift kernel's plan, as
//	               stridedctl watch does; watchers on 181.mcf and 197.parser edge-check
//	               make ingest reclassify real programs. Oracles, per repetition: every
//	               aggregate's codec bytes equal the offline profile.Merge of the shards
//	               sent to it (in commit order); the subscriber saw epochs 1..E exactly
//	               once; replaying the deltas gives the PlanStatus plan. No simulation
//	               runs in the timed phase.
//
// The simulation workloads take no input from the seed (their inputs are
// the paper's); strided-mix derives its shard inputs, draw order and drift
// kernel from it.
//
// # End-to-end metrics
//
// Measured untraced, reported by every workload:
//
//	setup_s      median, over several fresh processes, of process start to the first
//	             timed repetition (program build, CFG analysis, goldens; for strided-mix
//	             also the profiling runs behind its shards)
//	job_norm_s   median wall time of one repetition's timed phase
//	peak_rss_mb  peak RSS of the measuring process
//
// Both times are taken at the speed of the machine the benchmark was
// defined on: scaled by a calibration loop's reference time over its
// median time in this run. A shared host's speed drifts by ±20% and more
// over minutes, CPU time with it: over ten runs the raw median job time
// spread by 9-25% of its median, and between two sets of ten runs half an
// hour apart the raw medians moved by up to 45%. The calibration loop, a
// fixed integer loop sharing no code with the program, is timed before
// every repetition and after the last. It slows with the machine, though
// less than the jobs do, so dividing by it takes out part of the drift
// while a slower program still reads slower: it cut that 45% move to 21%,
// and the spread of hwpf-arena from 13% to 10-12% and of strided-mix from
// 19-25% to 15-17%; paper-figures stayed at 9-10%. The raw job time and
// the calibration time are the per-layer metrics job_s and calib_s.
//
// Failed operations are the result line's "failed" out of "attempted": a
// failed request or oracle counts one, a whole-job oracle failure counts
// the job. The service latencies are per-layer metrics because every
// end-to-end metric must be reported, and nonzero, on every workload.
//
// # Per-layer metrics and what they should move
//
// A traced run (-trace 1) reports every per-layer metric; layers a workload
// does not exercise report 0. Latencies and per-repetition values come from
// its untraced repetitions, CPU attribution from the traced one.
//
//	metrics                                          moves               on                 no change on
//	machine.self_s, stage.measure_run_s              job_norm_s          both simulations   strided-mix
//	cache.self_s, mem.self_s, cache.*                job_norm_s          both simulations   strided-mix
//	stride.self_s, stage.profile_run_s, stride.*,    job_norm_s          paper-figures      hwpf-arena
//	  sim.profile_instrs
//	hwpf.self_s, obs.self_s, hwpf.<scheme>.*         job_norm_s          hwpf-arena         paper-figures (0)
//	compiler.self_s, stage.instrument_s,             job_norm_s (small)  paper-figures      strided-mix
//	  stage.extract_s, stage.insert_s,
//	  experiments.fig15_s..fig25_s, sim.clean_*
//	runtime.gc_s, runtime.other_s                    job_norm_s, peak_rss_mb  all
//	walstore.upload_ms.*, walstore.dir_bytes,        ingest_p99_ms, plan_lag_p99_ms   strided-mix
//	  walstore.self_s
//	walstore.get_ms.p50, gate.*, server.read_ms.*    read_p50_ms, read_p99_ms         strided-mix
//	prefetch.self_s, plan.*                          ingest_p50_ms, plan_lag_p50_ms   strided-mix
//	server.ingest_ms.*, net.ingest_ms.p50, server.self_s, api.self_s, json.self_s,
//	  net.self_s, profile.self_s, client.self_s, svc.*  ingest_shards_per_s, job_norm_s   strided-mix
//
// job_s moves with every layer and with the host's speed, calib_s only with
// the host's speed.
//
// ingest_* (the UploadShard and UploadBatch requests), read_* (the reads)
// and plan_lag_* (from sending a drift-kernel push to the subscriber
// receiving the delta it caused) are client-observed latencies pooled over
// the repetitions; every percentile is the highest one with at least 10
// samples above it, and the sample counts are the *_n metrics. The plan lag
// pairs the delta computed after the window's r-th round with the r-th
// drift shard the store committed; two concurrent pushes can swap between
// commit and window ingest, an error of at most one push latency.
//
// # Reading a traced run
//
// The traced repetition writes, under -trace-dir:
//
//   - <workload>.spans.jsonl: one span per line (id, parent, name, rid,
//     start_ns, end_ns, relative to the repetition's start). Spans come only
//     from this program, around public calls: each Session.Figure call; each
//     client request, tagged with its X-Request-Id (rid); the handler
//     wrapper around server.Server, which puts the id into the request
//     context; the Gate wrapper, which reads it in Acquire; and the
//     ProfileStore wrapper, which maps the benchmark's idempotency keys back
//     to it. All spans of one request share its rid.
//   - <workload>.cpu.pprof: a CPU profile of the timed phase, requested at
//     500 Hz (a kernel with a 250 Hz tick delivers 250). Read it with
//     `go tool pprof -top` or `-traces`.
//
// The profile is attributed from `go tool pprof -traces -unit=ms`. Every
// sample is charged once to a stage, by its innermost stage frame
// (instrument.Instrument, the extraction methods of instrument.Result,
// prefetch.Apply, core.ProfilePass for the rest of a profiling pass,
// core.Execute; else other), and once to a module, by its innermost
// stridepf package (machine, cache, mem, stride with lfu, hwpf, obs,
// compiler = instrument, cfg, blpath, ir and opt, prefetch, profile,
// pipeline = experiments, core, workloads and the rest, walstore, server,
// api, client), encoding/json (json), net and net/http (net) or this
// program (bench), with runtime frames below it charged to it; stacks with
// none go to runtime.gc_s (GC workers) or runtime.other_s. Each breakdown
// sums to the profile's total, which must equal pprof's own. A layer's
// seconds are its share of the samples times the process CPU time over the
// timed phase (getrusage), so both breakdowns sum to that CPU time whatever
// rate the kernel delivered. trace.samples is the sample count, and
// trace.overhead_frac the traced repetition's job time over the untraced
// median, minus one.
//
// # Comparing runs
//
// `-o FILE` appends a record per workload. `-compare OLD NEW` reads two
// record files (say, ten runs of a parent commit and ten of a change) and
// prints, per workload and metric, both medians and a verdict using the
// direction and bound in BENCHMARK.json: worse (the new median is worse by
// more than the bound), better (it improved by more than the old runs'
// interquartile spread), same, or unresolved (the old runs' own spread
// exceeds the bound, unless every new run beats every old one). A set-up
// time change within 0.05 s is the same whatever its share. Per-layer
// metrics have no bound and are marked info. Each workload's first row,
// failed_frac, is the share of attempted operations that failed over its
// runs; any rise is worse. The exit status is nonzero when any row is
// worse.
package main
