package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stridepf/internal/api"
	"stridepf/internal/core"
	"stridepf/internal/experiments"
	"stridepf/internal/instrument"
	"stridepf/internal/lfu"
	"stridepf/internal/machine"
	"stridepf/internal/prefetch"
	"stridepf/internal/profile"
	"stridepf/internal/simcheck"
	"stridepf/internal/stride"
	"stridepf/internal/workloads"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func TestHealthzAndFigureListing(t *testing.T) {
	_, ts := testServer(t, Config{})

	code, _, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Errorf("healthz = %v", h)
	}

	code, _, body = get(t, ts.URL+"/v1/figures")
	if code != http.StatusOK || !strings.Contains(string(body), `"16"`) {
		t.Errorf("figures listing: %d %s", code, body)
	}

	for _, path := range []string{"/v1/figure/99", "/v1/figure/15?format=jsonl"} {
		code, _, body = get(t, ts.URL+path)
		if code != http.StatusNotFound || !strings.Contains(string(body), api.CodeUnknownFigure) {
			t.Errorf("%s: %d %s, want 404 %s", path, code, body, api.CodeUnknownFigure)
		}
	}
	code, _, _ = get(t, ts.URL+"/v1/figure/16?workloads=999.bogus")
	if code != http.StatusBadRequest {
		t.Errorf("bogus workload status = %d, want 400", code)
	}
	code, _, _ = get(t, ts.URL+"/v1/figure/16?format=yaml&workloads=197.parser")
	if code != http.StatusBadRequest {
		t.Errorf("bogus format status = %d, want 400", code)
	}
}

// TestFigureGolden asserts the daemon's contract: the figure endpoint's
// bytes equal what `experiments -figure N` writes (the CLI goes through
// Session.FigureText, so an independent session is the golden reference).
func TestFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	roster := []string{"197.parser"}
	_, ts := testServer(t, Config{Experiments: experiments.Config{Workloads: roster}})

	golden := experiments.NewSession(experiments.Config{Workloads: roster})
	ctx := context.Background()

	for _, fig := range []string{"15", "16"} {
		want, err := golden.FigureText(ctx, fig, false)
		if err != nil {
			t.Fatal(err)
		}
		code, hdr, body := get(t, ts.URL+"/v1/figure/"+fig)
		if code != http.StatusOK {
			t.Fatalf("figure %s status = %d: %s", fig, code, body)
		}
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("figure %s content type = %q", fig, ct)
		}
		if !bytes.Equal(body, []byte(want)) {
			t.Errorf("figure %s response diverges from CLI bytes\n--- server ---\n%s\n--- cli ---\n%s",
				fig, body, want)
		}
	}

	wantCSV, err := golden.FigureText(ctx, "16", true)
	if err != nil {
		t.Fatal(err)
	}
	code, _, body := get(t, ts.URL+"/v1/figure/16?format=csv")
	if code != http.StatusOK || !bytes.Equal(body, []byte(wantCSV)) {
		t.Errorf("csv response diverges (%d):\n%s", code, body)
	}

	// The JSONL stream carries the same numbers as the table.
	tb, err := golden.Figure(ctx, "16")
	if err != nil {
		t.Fatal(err)
	}
	code, hdr, body := get(t, ts.URL+"/v1/figure/16?format=jsonl")
	if code != http.StatusOK {
		t.Fatalf("jsonl status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/jsonl" {
		t.Errorf("jsonl content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1+len(tb.Rows) {
		t.Fatalf("jsonl lines = %d, want %d", len(lines), 1+len(tb.Rows))
	}
	var head api.FigureJSONLHeader
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
		t.Fatal(err)
	}
	if head.Title != tb.Title || len(head.Columns) != len(tb.Columns) {
		t.Errorf("jsonl header = %+v", head)
	}
	var row api.FigureJSONLRow
	if err := json.Unmarshal([]byte(lines[1]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Benchmark != tb.Rows[0].Name || *row.Values[0] != tb.Rows[0].Values[0] {
		t.Errorf("jsonl row = %+v, want %s %v", row, tb.Rows[0].Name, tb.Rows[0].Values)
	}
}

// uploadShard POSTs a codec-encoded profile and returns status and body.
func uploadShard(t *testing.T, url string, prof *profile.Combined) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.DefaultCodec.Encode(&buf, prof); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestShardedUploadMatchesOfflineMerge is the acceptance check for the
// networked profmerge: a profile collected in two (reseeded) shards and
// uploaded separately must classify identically to merging the shards
// offline and running the prefetch pass on the result.
func TestShardedUploadMatchesOfflineMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling runs in -short mode")
	}
	const wname = "197.parser"
	w := workloads.Get(wname)
	opts := instrument.Options{Method: instrument.EdgeCheck}

	in1, in2 := w.Train(), w.Train()
	in2.Seed += 12345
	pr1, err := core.ProfilePass(w, in1, opts, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := core.ProfilePass(w, in2, opts, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Offline flow: profmerge then prefetchc.
	merged, err := profile.Merge(pr1.Profiles, pr2.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	fbWant, err := prefetch.Apply(w.Program(), merged, prefetch.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Service flow: two uploads then one classify query.
	_, ts := testServer(t, Config{})
	url := ts.URL + "/v1/profiles/" + wname + "/edge-check"
	code, body := uploadShard(t, url, pr1.Profiles)
	if code != http.StatusOK {
		t.Fatalf("first upload: %d %s", code, body)
	}
	code, body = uploadShard(t, url, pr2.Profiles)
	if code != http.StatusOK {
		t.Fatalf("second upload: %d %s", code, body)
	}
	var info EntryInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.Shards != 2 {
		t.Errorf("entry info after two uploads = %+v", info)
	}

	code, _, body = get(t, ts.URL+"/v1/classify/"+wname+"/edge-check")
	if code != http.StatusOK {
		t.Fatalf("classify: %d %s", code, body)
	}
	var got struct {
		Version   int            `json:"version"`
		Inserted  int            `json:"inserted"`
		Decisions []api.Decision `json:"decisions"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Inserted != fbWant.Inserted {
		t.Errorf("inserted = %d, want %d", got.Inserted, fbWant.Inserted)
	}
	if len(got.Decisions) != len(fbWant.Decisions) {
		t.Fatalf("decisions = %d, want %d", len(got.Decisions), len(fbWant.Decisions))
	}
	for i, d := range fbWant.Decisions {
		g := got.Decisions[i]
		if g.Func != d.Key.Func || g.ID != d.Key.ID || g.Class != d.Class.String() ||
			g.Stride != d.Stride || g.K != d.K || g.Freq != d.Freq {
			t.Errorf("decision %d: got %+v, want %+v", i, g, d)
		}
	}

	// The merged aggregate downloads as the same profile the offline merge
	// produced (codec round trip).
	code, hdr, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("download: %d", code)
	}
	if hdr.Get("X-Profile-Version") != "2" {
		t.Errorf("version header = %q", hdr.Get("X-Profile-Version"))
	}
	var wantBuf bytes.Buffer
	if err := profile.DefaultCodec.Encode(&wantBuf, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, wantBuf.Bytes()) {
		t.Error("downloaded aggregate diverges from offline merge")
	}
}

func TestUploadRejectsMismatchedShard(t *testing.T) {
	_, ts := testServer(t, Config{})
	mk := func(fi int) *profile.Combined {
		return &profile.Combined{
			Edge: profile.NewEdgeProfile(),
			Stride: profile.NewStrideProfile([]stride.Summary{{
				Key: machine.LoadKey{Func: "main", ID: 1}, TotalStrides: 10,
				FineInterval: fi,
				TopStrides:   []lfu.Entry{{Value: 8, Freq: 10}},
			}}),
		}
	}
	url := ts.URL + "/v1/profiles/197.parser/mixed"
	if code, body := uploadShard(t, url, mk(1)); code != http.StatusOK {
		t.Fatalf("first upload: %d %s", code, body)
	}
	code, body := uploadShard(t, url, mk(4))
	if code != http.StatusConflict {
		t.Fatalf("mismatched upload status = %d (%s), want 409", code, body)
	}
	// The aggregate is unchanged by the rejected shard.
	var info EntryInfo
	_, _, lbody := get(t, ts.URL+"/v1/profiles")
	var listing struct {
		Profiles []EntryInfo `json:"profiles"`
	}
	if err := json.Unmarshal(lbody, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Profiles) != 1 {
		t.Fatalf("profiles = %+v", listing.Profiles)
	}
	info = listing.Profiles[0]
	if info.Version != 1 || info.Shards != 1 || info.FineInterval != 1 {
		t.Errorf("aggregate changed by rejected shard: %+v", info)
	}

	if code, _ := uploadShard(t, ts.URL+"/v1/profiles/999.bogus/x", mk(1)); code != http.StatusNotFound {
		t.Errorf("unknown workload upload status = %d, want 404", code)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload status = %d, want 400", resp.StatusCode)
	}
}

// waitHealthz polls /healthz until pred holds or the deadline passes.
func waitHealthz(t *testing.T, url string, pred func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, body := get(t, url+"/healthz")
		var h map[string]any
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		if pred(h) {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz predicate never held; last: %v", h)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBackpressureCancellationAndDrain drives the daemon's load-shedding
// path under -race: with one execution slot and a one-deep queue, a third
// concurrent figure request is refused with 429 + Retry-After; cancelled
// clients abort their simulations; Drain completes once in-flight work is
// gone.
func TestBackpressureCancellationAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	srv, ts := testServer(t, Config{
		// The full roster keeps the occupying request busy for the whole
		// test; it is cancelled, not awaited.
		MaxInFlight: 1,
		MaxQueued:   1,
	})

	type result struct {
		code int
		err  error
	}
	fire := func(ctx context.Context, fig string) chan result {
		ch := make(chan result, 1)
		go func() {
			req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/figure/"+fig, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				ch <- result{err: err}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ch <- result{code: resp.StatusCode}
		}()
		return ch
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	chA := fire(ctxA, "16")
	waitHealthz(t, ts.URL, func(h map[string]any) bool { return h["in_flight"] == float64(1) })

	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	chB := fire(ctxB, "17")
	waitHealthz(t, ts.URL, func(h map[string]any) bool { return h["queued"] == float64(1) })

	code, hdr, _ := get(t, ts.URL+"/v1/figure/18")
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Cancelled clients release the queue and the slot.
	cancelB()
	if r := <-chB; r.err == nil {
		t.Errorf("queued request returned %d after cancel, want transport error", r.code)
	}
	cancelA()
	if r := <-chA; r.err == nil && r.code != 499 {
		t.Errorf("in-flight request returned %d after cancel", r.code)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	h := waitHealthz(t, ts.URL, func(h map[string]any) bool {
		return h["in_flight"] == float64(0) && h["queued"] == float64(0)
	})
	if h["rejected"].(float64) < 1 {
		t.Errorf("rejected counter = %v, want >= 1", h["rejected"])
	}
}

// TestRequestTimeout checks the per-request deadline aborts a long figure
// computation with 504.
func TestRequestTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	_, ts := testServer(t, Config{RequestTimeout: 30 * time.Millisecond})
	code, _, body := get(t, ts.URL+"/v1/figure/16") // full roster: far over budget
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", code, body)
	}
}

// TestObsMetricsSurfacesFigureCells checks the figure pipeline registers
// prefetch-effectiveness reports into the registry behind /obs/metrics.
func TestObsMetricsSurfacesFigureCells(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment session in -short mode")
	}
	_, ts := testServer(t, Config{Experiments: experiments.Config{Workloads: []string{"197.parser"}}})
	if code, _, _ := get(t, ts.URL+"/v1/figure/16"); code != http.StatusOK {
		t.Fatal("figure request failed")
	}
	code, _, body := get(t, ts.URL+"/obs/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	var doc struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) == 0 {
		t.Error("no effectiveness cells registered by figure computation")
	}
	if !strings.Contains(string(body), "197.parser") {
		t.Error("metrics missing workload attribution")
	}
}

func TestRosterNormalisation(t *testing.T) {
	srv := New(Config{})
	r1, _ := http.NewRequest("GET", "/v1/figure/16?workloads=255.vortex,197.parser", nil)
	r2, _ := http.NewRequest("GET", "/v1/figure/16?workloads=197.parser,%20255.vortex,197.parser", nil)
	p1, apiErr := api.DecodeParams(r1.URL.Query(), srv.rosterSpec())
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	p2, apiErr := api.DecodeParams(r2.URL.Query(), srv.rosterSpec())
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if fmt.Sprint(p1.Workloads) != fmt.Sprint(p2.Workloads) {
		t.Errorf("equivalent rosters normalise differently: %v vs %v", p1.Workloads, p2.Workloads)
	}
}

// TestClassifyAndPlanRaceFirstFigure sends a classify request and a plan
// upload for a workload whose program has never been analysed while the
// first figure request on it runs. That request's first cell runs the
// program's CFG analysis, which rewrites its edge lists in place, so under
// -race this fails unless the daemon's own prefetch passes over the
// program wait for the analysis too.
func TestClassifyAndPlanRaceFirstFigure(t *testing.T) {
	var k *simcheck.DriftKernel
	var seed uint64
	for k == nil {
		seed = 0xE000 + driftSeq.Add(1)
		if k = simcheck.NewDriftKernel(seed); workloads.Register(k) != nil {
			k = nil
		}
	}
	// A kernel of the same seed is the same IR in a program of its own,
	// so profiling it leaves k's program unanalysed.
	shard := driftProfile(t, simcheck.NewDriftKernel(seed))
	_, ts := testServer(t, Config{})
	upURL := ts.URL + "/v1/profiles/" + k.Name() + "/prod"
	if code, body := uploadShard(t, upURL, shard); code != http.StatusOK {
		t.Fatalf("upload: %d %s", code, body)
	}
	planStatus(t, ts.URL, k.Name()) // creates the watcher the next upload feeds

	var buf bytes.Buffer
	if err := profile.DefaultCodec.Encode(&buf, shard); err != nil {
		t.Fatal(err)
	}
	reqs := []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Get(ts.URL + "/v1/figure/17?workloads=" + k.Name()) },
		func() (*http.Response, error) { return http.Get(ts.URL + "/v1/classify/" + k.Name() + "/prod") },
		func() (*http.Response, error) { return http.Post(upURL, "application/json", &buf) },
	}
	var wg sync.WaitGroup
	for _, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := req()
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: %d %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	if st := planStatus(t, ts.URL, k.Name()); st.Epoch != 1 {
		t.Errorf("plan epoch after the raced upload = %d, want 1", st.Epoch)
	}
}
