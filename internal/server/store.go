package server

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"stridepf/internal/api"
	"stridepf/internal/profile"
)

// EntryInfo is one stored profile aggregate's info. It is an alias of the
// shared wire type — the shape lives in internal/api, pinned by its golden
// test — kept under this name because the WAL store persists it inside its
// snapshots and the chaos wrappers implement ProfileStore
// against it. Workload and Config key the aggregate (Config names the
// collection setup, e.g. "sample-edge-check", so differently collected
// profiles of one workload stay separate); Version counts accepted
// uploads; Shards is the number of profiles merged in (== Version today,
// but kept separate so a future reset/compact can diverge them);
// FineInterval is the aggregate's fine-sampling interval (0 when the
// profiles never went through the runtime sampler).
type EntryInfo = api.ProfileInfo

// ProfileStore is the aggregate store behind the upload/download/classify
// endpoints. It is an interface so the chaos harness (internal/chaos) can
// wrap the real store with injected transient failures; Store is the real
// implementation, and walstore.Store adds a log around one. An error whose Temporary() method reports true is served
// as 503 + Retry-After instead of a terminal status.
type ProfileStore interface {
	// Upload merges prof into the (workload, config) aggregate. A non-empty
	// idemKey identifies the upload attempt: retrying a key whose merge
	// already committed replays the recorded result (replayed == true)
	// instead of double-merging the shard.
	Upload(workload, config string, prof *profile.Combined, idemKey string) (info EntryInfo, replayed bool, err error)
	// Get returns the merged aggregate and its info. The returned profile
	// must be safe for the caller to mutate: implementations hand out a
	// deep copy (profile.Combined.Clone), never the live aggregate.
	Get(workload, config string) (*profile.Combined, EntryInfo, error)
	// List returns every aggregate's info sorted by (workload, config).
	List() []EntryInfo
}

// maxIdemKeys bounds the per-aggregate idempotency table; the oldest keys
// fall off first. A retry storm long enough to recycle 4096 keys has long
// since exhausted any sane client's retry budget.
const maxIdemKeys = 4096

// Aggregate is one (workload, config) aggregate's whole state: what
// Export hands a snapshot and RestoreStore takes back, so that a restored
// store merges and deduplicates exactly as the original would have.
type Aggregate struct {
	Info   EntryInfo
	Merged *profile.Combined

	// Idem records the entry info returned for each committed idempotency
	// key, so a client that lost the response to a successful upload can
	// retry without the shard merging twice. IdemOrder lists Idem's keys
	// oldest first: the FIFO eviction order.
	Idem      map[string]EntryInfo
	IdemOrder []string
}

// A CommitLog makes a Store durable. The store calls it under its lock for
// every upload whose merge validated, before the merge commits, so it must
// not call back into the store; an error aborts the upload and leaves the
// aggregate and its idempotency table unchanged.
type CommitLog func(workload, config string, prof *profile.Combined, idemKey string) error

// Store aggregates uploaded stride profiles per (workload, config), the
// networked analogue of running cmd/profmerge over shard files: each upload
// is merged into the existing aggregate under the same fine-interval
// compatibility rule, and the entry's version is bumped so pollers can tell
// when the aggregate changed. It is the daemon's only aggregate: the
// durable store (internal/walstore) is a log around one. It is safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	entries map[string]*Aggregate
	log     CommitLog // nil: in memory only
}

var _ ProfileStore = (*Store)(nil)

// NewStore returns an empty in-memory store.
func NewStore() *Store { return RestoreStore(nil, nil) }

// RestoreStore returns a store holding the aggregates in state (as Export
// returned them, which the store takes over) that passes every upload
// through log before committing it. A nil log keeps the store in memory
// only.
func RestoreStore(state []Aggregate, log CommitLog) *Store {
	s := &Store{entries: make(map[string]*Aggregate, len(state)), log: log}
	for _, a := range state {
		if a.Idem == nil {
			a.Idem = make(map[string]EntryInfo)
		}
		s.entries[storeKey(a.Info.Workload, a.Info.Config)] = &a
	}
	return s
}

func storeKey(workload, config string) string { return workload + "|" + config }

// Upload merges prof into the (workload, config) aggregate and returns the
// updated entry info. A merge failure (fine-interval mismatch) or a commit
// log error leaves the aggregate unchanged. A repeated non-empty idemKey
// replays the result of the first successful upload with that key.
func (s *Store) Upload(workload, config string, prof *profile.Combined, idemKey string) (EntryInfo, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := storeKey(workload, config)
	e := s.entries[key]
	if e == nil {
		e = &Aggregate{
			Info: EntryInfo{Workload: workload, Config: config},
			Idem: make(map[string]EntryInfo),
		}
	}
	if idemKey != "" {
		if rec, ok := e.Idem[idemKey]; ok {
			return rec, true, nil
		}
	}
	merged, err := profile.Merge(e.Merged, prof)
	if err != nil {
		return EntryInfo{}, false, err
	}
	fi, err := merged.FineInterval()
	if err != nil {
		return EntryInfo{}, false, err
	}
	if s.log != nil {
		if err := s.log(workload, config, prof, idemKey); err != nil {
			return EntryInfo{}, false, err
		}
	}
	e.Merged = merged
	e.Info.Version++
	e.Info.Shards++
	e.Info.FineInterval = fi
	if idemKey != "" {
		// Only committed merges are recorded: a failed attempt must stay
		// retryable under the same key.
		e.Idem[idemKey] = e.Info
		e.IdemOrder = append(e.IdemOrder, idemKey)
		if len(e.IdemOrder) > maxIdemKeys {
			delete(e.Idem, e.IdemOrder[0])
			e.IdemOrder = e.IdemOrder[1:]
		}
	}
	s.entries[key] = e
	return e.Info, false, nil
}

// Get returns the merged aggregate and its info. The returned profile is a
// deep copy: callers may mutate it (or feed it to an in-place pass) without
// corrupting the aggregate behind the store's lock.
func (s *Store) Get(workload, config string) (*profile.Combined, EntryInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[storeKey(workload, config)]
	if e == nil {
		return nil, EntryInfo{}, fmt.Errorf("server: no profile for workload %q config %q", workload, config)
	}
	return e.Merged.Clone(), e.Info, nil
}

// List returns every aggregate's info sorted by (workload, config).
func (s *Store) List() []EntryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EntryInfo, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e.Info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Config < out[j].Config
	})
	return out
}

// Export returns every aggregate's state, ordered by "workload|config",
// for a snapshot. The idempotency tables are copies; the merged profiles
// are shared and must not be mutated (the store itself never mutates one:
// each upload commits a fresh merge).
func (s *Store) Export() []Aggregate {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Aggregate, len(keys))
	for i, k := range keys {
		e := s.entries[k]
		out[i] = Aggregate{
			Info: e.Info, Merged: e.Merged,
			Idem: maps.Clone(e.Idem), IdemOrder: slices.Clone(e.IdemOrder),
		}
	}
	return out
}
