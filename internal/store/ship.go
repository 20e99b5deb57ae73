package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"taxilight/internal/core"
)

// Segment shipping: the replication transport of the cluster layer.
// A replica pulls a peer's estimate history as a single CRC-framed
// stream — byte-compatible with the frames inside WAL segments — and
// bootstraps from the peer's checkpoint state first, so catching up
// from a peer is exactly the local recovery path (checkpoint + tail)
// run over HTTP instead of the local filesystem.

// LastSeq returns the newest sequence number assigned by Append, or 0
// when the store is empty.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq - 1
}

// StreamSinceFunc writes every retained record with Seq > from that keep
// accepts to w, oldest first, framed exactly like WAL segment frames (no
// magic header), and returns the newest sequence written and the record
// count. A nil keep accepts everything. It is the segment-range-by-key-set
// export behind cluster rebalancing: a joining node bulk-pulls only the
// history of keys it is about to own, and a repair transfer ships only
// the under-replicated key set, instead of every peer replaying every
// segment. Filtering happens after decode, per record, so the framing
// does not depend on keep and ReadStream reads either. Records older than
// the retention horizon may already be compacted away; the caller is
// expected to seed itself from a checkpoint first (see EncodeState) so
// the stream only needs to cover the tail.
func (s *Store) StreamSinceFunc(from uint64, keep func(Record) bool, w io.Writer) (last uint64, n int, err error) {
	s.mu.Lock()
	if !s.closed {
		if err := s.flushLocked(false); err != nil {
			s.mu.Unlock()
			return 0, 0, err
		}
	}
	var segs []*segment
	for _, sg := range s.segs {
		if !sg.scanned {
			if err := sg.scanBounds(); err != nil && !os.IsNotExist(err) {
				s.mu.Unlock()
				return 0, 0, err
			}
		}
		if sg.count > 0 && sg.lastSeq > from {
			segs = append(segs, sg)
		}
	}
	s.mu.Unlock()

	bw := bufio.NewWriterSize(w, 32<<10)
	var buf []byte
	for _, sg := range segs {
		_, _, werr := walkSegment(sg.path, func(rec Record) error {
			if rec.Seq <= from {
				return nil
			}
			if keep != nil && !keep(rec) {
				return nil
			}
			buf = rec.encode(buf[:0])
			if _, err := appendFrame(bw, buf); err != nil {
				return err
			}
			if rec.Seq > last {
				last = rec.Seq
			}
			n++
			return nil
		})
		if werr != nil {
			// A segment compacted away between catalog and walk holds only
			// records the checkpoint already covers.
			if os.IsNotExist(werr) {
				continue
			}
			return last, n, werr
		}
	}
	return last, n, bw.Flush()
}

// ReadStream decodes a stream produced by StreamSince, calling fn for
// every record in order. A short or corrupt frame fails the whole read:
// unlike a crash-torn local WAL tail, a replication stream is produced
// by a live peer and must arrive intact.
func ReadStream(r io.Reader, fn func(Record) error) error {
	br := bufio.NewReaderSize(r, 32<<10)
	buf := make([]byte, encodedRecordSize)
	for {
		payload, err := readFrame(br, buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: torn replication stream")
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return derr
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// EncodeState serialises engine state plus the WAL sequence it reflects
// in the checkpoint JSON format — the payload a peer serves so a
// replica can warm-start exactly like a local restart.
func EncodeState(st core.EngineState, lastSeq uint64) ([]byte, error) {
	return json.Marshal(docFromState(st, lastSeq))
}

// DecodeState parses a payload produced by EncodeState.
func DecodeState(b []byte) (core.EngineState, uint64, error) {
	var doc checkpointDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return core.EngineState{}, 0, err
	}
	return stateFromDoc(doc), doc.LastSeq, nil
}
