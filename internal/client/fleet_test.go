package client_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"testing"

	"stridepf/internal/client"
	"stridepf/internal/lfu"
	"stridepf/internal/machine"
	"stridepf/internal/profile"
	"stridepf/internal/ring"
	"stridepf/internal/server"
	"stridepf/internal/stride"
)

// The fleet tests run real strided handlers (not stub transports): three
// in-process nodes, a ring-routed Fleet in front, and the invariant that
// every aggregate lands on exactly the node the ring predicts.

func fleetShard(n int64) *profile.Combined {
	return &profile.Combined{
		Edge: profile.NewEdgeProfile(),
		Stride: profile.NewStrideProfile([]stride.Summary{{
			Key: machine.LoadKey{Func: "main", ID: 1}, TotalStrides: n,
			FineInterval: 1,
			TopStrides:   []lfu.Entry{{Value: 8, Freq: n}},
		}}),
	}
}

// startFleet brings up n real strided nodes and a Fleet over them,
// returning both plus the per-node servers keyed by base URL.
func startFleet(t *testing.T, n int) (*client.Fleet, map[string]*server.Server) {
	t.Helper()
	nodes := make([]string, 0, n)
	byURL := make(map[string]*server.Server, n)
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{Log: log.New(io.Discard, "", 0)})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		nodes = append(nodes, ts.URL)
		byURL[ts.URL] = srv
	}
	f, err := client.NewFleet(client.Config{MaxAttempts: 3}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return f, byURL
}

func TestFleetRoutesToRingOwner(t *testing.T) {
	f, byURL := startFleet(t, 3)
	ctx := context.Background()

	// Spread aggregates across configs until every node owns at least one,
	// verifying each upload landed exactly where the ring says.
	r, err := ring.New(f.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[string]int)
	for i := 0; i < 12; i++ {
		config := fmt.Sprintf("cfg-%d", i)
		owner := f.Owner("197.parser", config)
		if want := r.Owner(ring.Key("197.parser", config)); owner != want {
			t.Fatalf("fleet owner %q disagrees with ring owner %q", owner, want)
		}
		if _, err := f.For("197.parser", config).UploadShard(ctx, "197.parser", config, fleetShard(int64(i+1))); err != nil {
			t.Fatalf("upload cfg-%d: %v", i, err)
		}
		owned[owner]++
		// The aggregate exists on the owner and nowhere else.
		for url, srv := range byURL {
			_, _, err := srv.Store().Get("197.parser", config)
			if url == owner && err != nil {
				t.Fatalf("cfg-%d missing on its owner %s: %v", i, url, err)
			}
			if url != owner && err == nil {
				t.Fatalf("cfg-%d leaked onto non-owner %s", i, url)
			}
		}
	}
	if len(owned) < 2 {
		t.Fatalf("12 configs all landed on %d node(s); routing is degenerate: %v", len(owned), owned)
	}

	// Keyed reads route to the same owner.
	prof, version, err := f.For("197.parser", "cfg-0").FetchProfile(ctx, "197.parser", "cfg-0")
	if err != nil || version != 1 {
		t.Fatalf("fetch via fleet: version=%d err=%v", version, err)
	}
	var got, want bytes.Buffer
	if err := profile.DefaultCodec.Encode(&got, prof); err != nil {
		t.Fatal(err)
	}
	if err := profile.DefaultCodec.Encode(&want, fleetShard(1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("fleet fetch returned different bytes than the uploaded shard")
	}

	// The fleet-wide listing is the union of all nodes, sorted.
	infos, err := f.ListProfiles(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 12 {
		t.Fatalf("fleet listing has %d aggregates, want 12", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Config > infos[i].Config {
			t.Fatalf("fleet listing out of order: %+v", infos)
		}
	}

	// Health fans out to every node.
	healths, herrs := f.Health(ctx)
	if len(herrs) != 0 || len(healths) != 3 {
		t.Fatalf("fleet health: %d ok, errs %v", len(healths), herrs)
	}
}

func TestFleetBatchSplitsByOwnerAndRetriesSafely(t *testing.T) {
	f, byURL := startFleet(t, 3)
	ctx := context.Background()

	shards := make([]client.BatchShard, 9)
	for i := range shards {
		shards[i] = client.BatchShard{
			Workload: "197.parser", Config: fmt.Sprintf("batch-%d", i%3),
			Profile: fleetShard(int64(i + 1)),
			Key:     fmt.Sprintf("fb-%d", i),
		}
	}
	results, err := f.UploadBatch(ctx, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(shards) {
		t.Fatalf("%d results for %d shards", len(results), len(shards))
	}
	for i, r := range results {
		// Results come back in input order despite the per-node split.
		if r.Config != shards[i].Config || r.Err != "" || r.Info.Deduped {
			t.Fatalf("result %d = %+v for shard %+v", i, r, shards[i])
		}
	}
	// Each config's aggregate holds its 3 shards, on its owner only.
	for c := 0; c < 3; c++ {
		config := fmt.Sprintf("batch-%d", c)
		owner := f.Owner("197.parser", config)
		_, info, err := byURL[owner].Store().Get("197.parser", config)
		if err != nil || info.Shards != 3 {
			t.Fatalf("%s on owner: shards=%d err=%v, want 3", config, info.Shards, err)
		}
	}

	// A full fleet-batch retry with the same keys replays everywhere.
	results, err = f.UploadBatch(ctx, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Info.Deduped || r.Err != "" {
			t.Fatalf("retry result %d = %+v, want idempotent replay", i, r)
		}
	}
}

func TestFleetSingleNodeDegeneratesToClient(t *testing.T) {
	f, _ := startFleet(t, 1)
	ctx := context.Background()
	if got := f.Owner("197.parser", "x"); got != f.Nodes()[0] {
		t.Fatalf("single-node owner = %q, want the only node", got)
	}
	if _, err := f.For("197.parser", "x").UploadShard(ctx, "197.parser", "x", fleetShard(4)); err != nil {
		t.Fatal(err)
	}
	rep, err := f.For("197.parser", "x").Classify(ctx, "197.parser", "x")
	if err != nil || rep.Shards != 1 {
		t.Fatalf("classify via fleet: %+v err=%v", rep, err)
	}
}
