package walstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"stridepf/internal/profile"
	"stridepf/internal/server"
)

// Options parameterises a Store. The zero value selects production-shaped
// defaults; tests shrink the thresholds to exercise rotation, snapshots
// and compaction quickly.
type Options struct {
	// SegmentBytes rotates the active WAL segment once it grows past this
	// size; zero selects 4 MiB.
	SegmentBytes int64
	// SnapshotEvery takes a compacted snapshot (and prunes fully covered
	// segments) after this many accepted uploads; zero selects 256,
	// negative disables snapshots (the WAL grows without bound — tests
	// only).
	SnapshotEvery int
	// Sync fsyncs every WAL append and snapshot. Off, durability is
	// process-crash-proof but not power-loss-proof; the chaos and torn-
	// write suites run unsynced because they model process kills.
	Sync bool
	// Log receives recovery and compaction lines; nil uses log.Default().
	Log *log.Logger
}

func (o *Options) fill() {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	if o.Log == nil {
		o.Log = log.Default()
	}
}

// walRecord is the payload of one WAL frame: one accepted shard upload.
// Shard carries the versioned profile.Codec bytes, so the record format
// inherits the codec's version negotiation and fine-interval enforcement.
type walRecord struct {
	Seq      uint64 `json:"seq"`
	Workload string `json:"workload"`
	Config   string `json:"config"`
	IdemKey  string `json:"idemKey,omitempty"`
	Shard    []byte `json:"shard"`
}

// snapEntry is one aggregate inside a snapshot, including its idempotency
// table: replaying a snapshot must leave retried uploads exactly as
// dedup-safe as they were before the crash.
type snapEntry struct {
	Info      server.EntryInfo            `json:"info"`
	Merged    []byte                      `json:"merged"` // profile.Codec bytes
	Idem      map[string]server.EntryInfo `json:"idem,omitempty"`
	IdemOrder []string                    `json:"idemOrder,omitempty"`
}

// snapFile is a whole snapshot: the store state after applying every
// record with Seq <= Seq.
type snapFile struct {
	Seq     uint64      `json:"seq"`
	Entries []snapEntry `json:"entries"`
}

// Store is the WAL-backed ProfileStore: a log around one server.Store
// aggregate, which owns the merge, the idempotency table and the reads.
// It is safe for concurrent use.
type Store struct {
	// aggregate holds the profiles and serves Get and List. It is embedded
	// under an unexported name so that its own Upload, which would commit
	// without logging, cannot be reached from outside the package: every
	// upload goes through Store.Upload, and logUpload is the aggregate's
	// commit log.
	*aggregate

	// mu serialises uploads, snapshots, rotation and Close; an upload holds
	// it across the aggregate's commit, so it also guards the log state
	// below when logUpload runs.
	mu   sync.Mutex
	dir  string
	opts Options

	seq       uint64 // last committed record sequence number
	replaying bool   // recovery is re-committing records the log already holds

	seg       *os.File // active segment
	segSize   int64
	segFirst  uint64 // sequence number the active segment starts at
	sinceSnap int
	broken    error // set when the WAL can no longer be trusted for appends
}

// aggregate names server.Store for embedding (see Store).
type aggregate = server.Store

var _ server.ProfileStore = (*Store)(nil)

func segPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", firstSeq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", seq))
}

// parseSeqName extracts the hex sequence number from "prefix-<16hex>.ext".
func parseSeqName(name, prefix, ext string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ext)
	if len(hexPart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Open loads (or creates) the store rooted at dir: it applies the newest
// valid snapshot, replays every WAL record after it — stopping at the
// first torn or checksum-failing frame, which a crash mid-append
// legitimately leaves behind — repairs the torn tail, and starts a fresh
// active segment so new appends never land after garbage.
func Open(dir string, opts Options) (*Store, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if err := s.openActiveSegment(); err != nil {
		return nil, err
	}
	return s, nil
}

// scanDir lists segment and snapshot sequence numbers present in dir,
// each sorted ascending.
func scanDir(dir string) (segs, snaps []uint64, err error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, de := range des {
		if seq, ok := parseSeqName(de.Name(), "wal-", ".seg"); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeqName(de.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

// recover rebuilds the aggregate from snapshot + WAL tail.
func (s *Store) recover() error {
	segs, snaps, err := scanDir(s.dir)
	if err != nil {
		return err
	}

	// Newest snapshot first. Snapshots are written atomically (temp +
	// rename), so a crash cannot tear one; a snapshot that fails its
	// checksum means on-disk corruption, and silently dropping it would
	// silently drop every compacted-away record — refuse instead.
	var state []server.Aggregate
	if len(snaps) > 0 {
		snapSeq := snaps[len(snaps)-1]
		if state, err = loadSnapshot(snapPath(s.dir, snapSeq), snapSeq); err != nil {
			return fmt.Errorf("walstore: snapshot %d: %w (refusing to recover past compacted records)", snapSeq, err)
		}
		s.seq = snapSeq
	}
	s.aggregate = server.RestoreStore(state, s.logUpload)
	s.replaying = true
	defer func() { s.replaying = false }()

	// Replay segments in order. Only the newest segment may legitimately
	// end torn (a crash mid-append); a bad frame or a sequence gap earlier
	// means the log cannot be trusted past that point, so replay stops and
	// later records are not applied.
	for i, first := range segs {
		path := segPath(s.dir, first)
		sc, err := readSegmentFile(path)
		if err != nil {
			return err
		}
		stop, err := s.applySegment(sc, path)
		if err != nil {
			return err
		}
		if sc.torn && i < len(segs)-1 {
			s.opts.Log.Printf("walstore: %s: torn mid-log (not the newest segment); stopping replay at seq %d", filepath.Base(path), s.seq)
			return nil
		}
		if sc.torn {
			s.opts.Log.Printf("walstore: %s: torn tail repaired; recovered through seq %d", filepath.Base(path), s.seq)
			if err := os.Truncate(path, sc.goodLen); err != nil {
				return err
			}
		}
		if stop {
			return nil
		}
	}
	return nil
}

// applySegment replays one scanned segment, skipping records the snapshot
// already covers and stopping (stop=true) on a sequence gap.
func (s *Store) applySegment(sc segmentScan, path string) (stop bool, err error) {
	for _, payload := range sc.frames {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A frame that passes its CRC but does not decode was never
			// written by this store; treat like a torn tail.
			s.opts.Log.Printf("walstore: %s: undecodable record after seq %d; stopping replay", filepath.Base(path), s.seq)
			return true, nil
		}
		if rec.Seq <= s.seq {
			continue // snapshot already covers it
		}
		if rec.Seq != s.seq+1 {
			s.opts.Log.Printf("walstore: %s: sequence gap (have %d, record %d); stopping replay", filepath.Base(path), s.seq, rec.Seq)
			return true, nil
		}
		// Records are only ever appended after their merge validated, so
		// a replay error means the log itself is inconsistent.
		prof, err := profile.DefaultCodec.Decode(bytes.NewReader(rec.Shard))
		if err != nil {
			return false, fmt.Errorf("walstore: replay seq %d: %w", rec.Seq, err)
		}
		if _, _, err := s.aggregate.Upload(rec.Workload, rec.Config, prof, rec.IdemKey); err != nil {
			return false, fmt.Errorf("walstore: replay seq %d: %w", rec.Seq, err)
		}
		s.seq = rec.Seq
	}
	return false, nil
}

// loadSnapshot reads the aggregate state recorded at snapSeq.
func loadSnapshot(path string, snapSeq uint64) ([]server.Aggregate, error) {
	payload, err := readFileAtomic(path, snapMagic)
	if err != nil {
		return nil, err
	}
	var sf snapFile
	if err := json.Unmarshal(payload, &sf); err != nil {
		return nil, err
	}
	if sf.Seq != snapSeq {
		return nil, fmt.Errorf("payload claims seq %d, filename says %d", sf.Seq, snapSeq)
	}
	state := make([]server.Aggregate, len(sf.Entries))
	for i, se := range sf.Entries {
		merged, err := profile.DefaultCodec.Decode(bytes.NewReader(se.Merged))
		if err != nil {
			return nil, fmt.Errorf("aggregate %s/%s: %w", se.Info.Workload, se.Info.Config, err)
		}
		state[i] = server.Aggregate{Info: se.Info, Merged: merged, Idem: se.Idem, IdemOrder: se.IdemOrder}
	}
	return state, nil
}

// openActiveSegment starts the segment new appends go to. Recovery always
// starts a fresh segment (first sequence s.seq+1) instead of reopening the
// newest one: appending after a repaired tail would race the repair, and a
// name collision can only be a leftover whose records were already applied
// (they would have advanced s.seq past the collision) or whose first frame
// was torn — both safe to truncate.
func (s *Store) openActiveSegment() error {
	s.segFirst = s.seq + 1
	f, size, err := createSegment(segPath(s.dir, s.segFirst), s.opts.Sync)
	if err != nil {
		return err
	}
	s.seg = f
	s.segSize = size
	return nil
}

// Upload implements server.ProfileStore. The aggregate validates the
// merge, logUpload appends the WAL record, and only then does the
// aggregate commit — so the log never contains a record that cannot
// replay, and a crash between append and commit just replays the record
// on restart.
func (s *Store) Upload(workload, config string, prof *profile.Combined, idemKey string) (server.EntryInfo, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return server.EntryInfo{}, false, s.broken
	}
	if s.seg == nil {
		return server.EntryInfo{}, false, fmt.Errorf("walstore: store is closed")
	}
	info, replayed, err := s.aggregate.Upload(workload, config, prof, idemKey)
	if err != nil || replayed {
		return info, replayed, err
	}

	s.sinceSnap++
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			// The WAL still has everything; the snapshot retries at the
			// next interval.
			s.opts.Log.Printf("walstore: snapshot failed (will retry): %v", err)
		}
	} else if s.segSize >= s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			s.opts.Log.Printf("walstore: segment rotation failed (appends continue on the old segment): %v", err)
		}
	}
	return info, false, nil
}

// logUpload is the aggregate's commit log: it appends the upload as the
// next WAL record. Records replayed during recovery are already in the
// log, so nothing is written for them.
func (s *Store) logUpload(workload, config string, prof *profile.Combined, idemKey string) error {
	if s.replaying {
		return nil
	}
	var shard bytes.Buffer
	if err := profile.DefaultCodec.Encode(&shard, prof); err != nil {
		return err
	}
	payload, err := json.Marshal(walRecord{
		Seq: s.seq + 1, Workload: workload, Config: config,
		IdemKey: idemKey, Shard: shard.Bytes(),
	})
	if err != nil {
		return err
	}
	if err := s.appendPayload(payload); err != nil {
		return err
	}
	s.seq++
	return nil
}

// appendPayload frames payload onto the active segment. On a write error
// it truncates back to the pre-write offset so the next append does not
// land after a torn frame; if even that fails the store refuses further
// writes rather than corrupt the log.
func (s *Store) appendPayload(payload []byte) error {
	if err := appendFrame(s.seg, payload); err != nil {
		if terr := s.seg.Truncate(s.segSize); terr != nil {
			s.broken = fmt.Errorf("walstore: append failed and tail truncation failed: %v (after %w)", terr, err)
			return s.broken
		}
		if _, serr := s.seg.Seek(s.segSize, io.SeekStart); serr != nil {
			s.broken = fmt.Errorf("walstore: append failed and seek-back failed: %v (after %w)", serr, err)
			return s.broken
		}
		return err
	}
	s.segSize += frameLen(payload)
	if s.opts.Sync {
		return s.seg.Sync()
	}
	return nil
}

// rotateLocked closes the active segment and starts the next one.
func (s *Store) rotateLocked() error {
	if err := s.seg.Close(); err != nil {
		return err
	}
	return s.openActiveSegment()
}

// Snapshot forces a compacted snapshot and prunes covered WAL segments
// and older snapshots. Exposed for operators and tests; uploads trigger it
// automatically every SnapshotEvery accepts.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return fmt.Errorf("walstore: store is closed")
	}
	return s.snapshotLocked()
}

// snapshotLocked writes the snapshot at the current sequence, rotates the
// active segment, then deletes everything the snapshot covers: older
// segments (every record in them has seq <= snapshot seq, because the
// rotation happened after the snapshot committed) and older snapshots. A
// crash between any two steps is safe — deletion is pure garbage
// collection of records replay would skip anyway.
func (s *Store) snapshotLocked() error {
	sf := snapFile{Seq: s.seq}
	for _, a := range s.Export() {
		var buf bytes.Buffer
		if err := profile.DefaultCodec.Encode(&buf, a.Merged); err != nil {
			return err
		}
		sf.Entries = append(sf.Entries, snapEntry{
			Info: a.Info, Merged: buf.Bytes(), Idem: a.Idem, IdemOrder: a.IdemOrder,
		})
	}
	payload, err := json.Marshal(sf)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(snapPath(s.dir, s.seq), snapMagic, payload, s.opts.Sync); err != nil {
		return err
	}
	s.sinceSnap = 0

	// The snapshot is durable; everything before it is garbage.
	if err := s.rotateLocked(); err != nil {
		return err
	}
	s.compactLocked()
	return nil
}

// compactLocked deletes segments and snapshots fully covered by the
// newest snapshot. Failures are logged, not returned: leftover files are
// skipped by replay and retried at the next compaction.
func (s *Store) compactLocked() {
	segs, snaps, err := scanDir(s.dir)
	if err != nil {
		s.opts.Log.Printf("walstore: compact scan: %v", err)
		return
	}
	if len(snaps) == 0 {
		return
	}
	newest := snaps[len(snaps)-1]
	removed := 0
	for _, first := range segs {
		// A segment is disposable when it is not the active one and every
		// record in it precedes the snapshot. Segment names are their first
		// sequence; the snapshot rotation guarantees the active segment
		// starts past the snapshot.
		if first != s.segFirst && first <= newest {
			if err := os.Remove(segPath(s.dir, first)); err != nil {
				s.opts.Log.Printf("walstore: compact: %v", err)
			} else {
				removed++
			}
		}
	}
	for _, seq := range snaps[:len(snaps)-1] {
		if err := os.Remove(snapPath(s.dir, seq)); err != nil {
			s.opts.Log.Printf("walstore: compact: %v", err)
		}
	}
	if removed > 0 {
		s.opts.Log.Printf("walstore: snapshot at seq %d compacted %d segment(s)", newest, removed)
	}
}

// LastSeq returns the sequence number of the last committed upload (0 when
// empty): the recovery tests use it to identify which committed prefix a
// replay restored.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Close flushes and closes the active segment. The store rejects uploads
// afterwards; reads keep working.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}
