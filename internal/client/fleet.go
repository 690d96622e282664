package client

import (
	"context"
	"fmt"
	"sort"

	"stridepf/internal/ring"
)

// Fleet routes profile operations across several strided nodes by
// consistent hashing: every (workload, config) aggregate lives on exactly
// one node — the owner of its ring key — so producers spread over the
// fleet, and any independently configured Fleet with the same member list
// agrees on who owns what. It holds only the cross-node operations:
// keyed calls (upload, fetch, classify, plan) go to the owner's client,
// For(workload, config); batches split by owner; list and health fan out.
//
// Each node gets its own resilient Client, so per-node failures retry and
// break circuits independently — a dead node does not slow traffic to the
// others.
type Fleet struct {
	ring    *ring.Ring
	clients map[string]*Client
}

// NewFleet builds a fleet over the given node base URLs. cfg applies to
// every per-node client; its BaseURL field is ignored. A single-element
// fleet behaves exactly like a plain Client with extra routing arithmetic.
func NewFleet(cfg Config, servers []string) (*Fleet, error) {
	r, err := ring.New(servers)
	if err != nil {
		return nil, fmt.Errorf("client: fleet: %w", err)
	}
	f := &Fleet{ring: r, clients: make(map[string]*Client, len(r.Nodes()))}
	for _, node := range r.Nodes() {
		ncfg := cfg
		ncfg.BaseURL = node
		cl, err := New(ncfg)
		if err != nil {
			return nil, fmt.Errorf("client: fleet node %q: %w", node, err)
		}
		f.clients[node] = cl
	}
	return f, nil
}

// Nodes returns the sorted member list.
func (f *Fleet) Nodes() []string { return f.ring.Nodes() }

// Owner returns the node URL owning the (workload, config) aggregate.
func (f *Fleet) Owner(workload, config string) string {
	return f.ring.Owner(ring.Key(workload, config))
}

// Node returns the client for one member URL (nil if not a member).
func (f *Fleet) Node(name string) *Client { return f.clients[name] }

// For returns the client owning the (workload, config) aggregate.
func (f *Fleet) For(workload, config string) *Client {
	return f.clients[f.Owner(workload, config)]
}

// UploadBatch splits the batch by owning node, sends one sub-batch per
// node, and reassembles the results in input order. Keys are drawn before
// splitting so every sub-batch retry reuses them. A failing node fails the
// whole call; shards that committed on other nodes replay on the caller's
// retry through their keys.
func (f *Fleet) UploadBatch(ctx context.Context, shards []BatchShard) ([]BatchResult, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("client: empty batch")
	}
	byNode := make(map[string][]int)
	withKeys := make([]BatchShard, len(shards))
	for i, sh := range shards {
		if sh.Key == "" {
			sh.Key = NewIdempotencyKey()
		}
		withKeys[i] = sh
		node := f.Owner(sh.Workload, sh.Config)
		byNode[node] = append(byNode[node], i)
	}
	// Deterministic node order keeps runs reproducible under test.
	nodes := make([]string, 0, len(byNode))
	for node := range byNode {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)

	results := make([]BatchResult, len(shards))
	for _, node := range nodes {
		idxs := byNode[node]
		sub := make([]BatchShard, len(idxs))
		for j, i := range idxs {
			sub[j] = withKeys[i]
		}
		subResults, err := f.clients[node].UploadBatch(ctx, sub)
		if err != nil {
			return nil, fmt.Errorf("client: fleet node %s: %w", node, err)
		}
		for j, i := range idxs {
			results[i] = subResults[j]
		}
	}
	return results, nil
}

// ListProfiles fans out to every node and returns the union sorted by
// (workload, config) — the same order a single node's listing uses.
func (f *Fleet) ListProfiles(ctx context.Context) ([]ProfileInfo, error) {
	var all []ProfileInfo
	for _, node := range f.ring.Nodes() {
		infos, err := f.clients[node].ListProfiles(ctx)
		if err != nil {
			return nil, fmt.Errorf("client: fleet node %s: %w", node, err)
		}
		all = append(all, infos...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Workload != all[j].Workload {
			return all[i].Workload < all[j].Workload
		}
		return all[i].Config < all[j].Config
	})
	return all, nil
}

// Health fans out to every node and returns per-node health keyed by node
// URL. Unreachable nodes surface as errors in the second map rather than
// failing the whole call — an operator asking "how is the fleet" wants the
// survivors' answers too.
func (f *Fleet) Health(ctx context.Context) (map[string]Health, map[string]error) {
	healths := make(map[string]Health)
	errs := make(map[string]error)
	for _, node := range f.ring.Nodes() {
		h, err := f.clients[node].Health(ctx)
		if err != nil {
			errs[node] = err
			continue
		}
		healths[node] = h
	}
	return healths, errs
}
