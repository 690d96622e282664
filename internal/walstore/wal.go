// Package walstore is the durable server.ProfileStore: a log around one
// in-memory server.Store aggregate. Every accepted shard upload is
// appended to a segmented, checksummed write-ahead log before the
// aggregate commits it, periodic compacted snapshots bound replay time,
// and Open reconstructs the exact aggregate by replaying the newest
// snapshot plus the WAL tail. The recovery oracle is byte-exact:
// after any crash — including a kill that tears the last record in half —
// the reopened store's aggregates are byte-identical to a fault-free
// offline profmerge of the committed shard prefix. See DESIGN.md §12.
package walstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Segment and snapshot files start with an 8-byte magic so a reader can
// reject foreign files before trusting a single frame.
const (
	segMagic  = "SPFWAL1\n"
	snapMagic = "SPFSNP1\n"
	magicLen  = 8
)

// frameHeaderLen is the per-record header: 4-byte big-endian payload
// length followed by the payload's CRC-32C.
const frameHeaderLen = 8

// maxFrameLen bounds a single record so a corrupted length field cannot
// ask the reader to allocate gigabytes. 256 MiB matches the server's
// request-body bound with headroom for snapshot payloads.
const maxFrameLen = 256 << 20

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errBadFrame marks a frame that failed its length or checksum validation;
// replay treats it as the torn tail of the log.
var errBadFrame = errors.New("walstore: bad frame")

// appendFrame writes one length+CRC framed payload to w.
func appendFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameLen is the on-disk size of a framed payload.
func frameLen(payload []byte) int64 { return frameHeaderLen + int64(len(payload)) }

// readFrame reads one framed payload from r. It returns errBadFrame for a
// truncated header/payload or a checksum mismatch, and io.EOF at a clean
// end of input.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errBadFrame // torn header
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > maxFrameLen {
		return nil, errBadFrame
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errBadFrame // torn payload
	}
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, errBadFrame
	}
	return payload, nil
}

// segmentScan is the result of reading one segment file.
type segmentScan struct {
	// frames are the validated payloads in order.
	frames [][]byte
	// goodLen is the byte length of the valid prefix (magic + intact
	// frames); truncating the file here repairs a torn tail.
	goodLen int64
	// torn reports that the file ended in a bad frame rather than cleanly.
	torn bool
}

// readSegmentFile validates and reads a whole segment. A missing or wrong
// magic yields an empty, torn scan (goodLen 0): the file contributes no
// records and must not be appended to.
func readSegmentFile(path string) (segmentScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return segmentScan{}, err
	}
	defer f.Close()
	var sc segmentScan
	var magic [magicLen]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != segMagic {
		sc.torn = true
		return sc, nil
	}
	sc.goodLen = magicLen
	// Buffer the rest: segments are bounded by the rotation threshold.
	rest, err := io.ReadAll(f)
	if err != nil {
		return segmentScan{}, err
	}
	r := &sliceReader{b: rest}
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			return sc, nil
		}
		if err != nil {
			sc.torn = true
			return sc, nil
		}
		sc.frames = append(sc.frames, payload)
		sc.goodLen += frameLen(payload)
	}
}

// sliceReader is a minimal io.Reader over a byte slice (bytes.Reader would
// do; this avoids the extra interface allocations in the replay loop).
type sliceReader struct {
	b []byte
	i int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

// createSegment creates (or truncates) a segment file and writes its
// magic. Truncation is deliberate: a name collision can only happen with a
// leftover file whose records were already applied or whose first frame
// was torn — see Store.openActiveSegment.
func createSegment(path string, sync bool) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return nil, 0, err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	return f, magicLen, nil
}

// writeFileAtomic writes payload (framed, with the given magic) to path
// via a temp file and rename, fsyncing when sync is set. A crash at any
// point leaves either the old file or the new one, never a torn hybrid.
func writeFileAtomic(path string, magic string, payload []byte, sync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = func() error {
		if _, err := f.WriteString(magic); err != nil {
			return err
		}
		if err := appendFrame(f, payload); err != nil {
			return err
		}
		if sync {
			return f.Sync()
		}
		return nil
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// readFileAtomic reads a file written by writeFileAtomic, validating magic
// and frame.
func readFileAtomic(path string, magic string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m [magicLen]byte
	if _, err := io.ReadFull(f, m[:]); err != nil || string(m[:]) != magic {
		return nil, fmt.Errorf("walstore: %s: bad magic", path)
	}
	payload, err := readFrame(f)
	if err != nil {
		return nil, fmt.Errorf("walstore: %s: %w", path, err)
	}
	return payload, nil
}
