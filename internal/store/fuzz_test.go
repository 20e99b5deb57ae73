package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"taxilight/internal/lights"
)

// FuzzReadStream feeds ReadStream the bytes a peer's /cluster/v1/wal body
// may carry. It never panics; every record it yields survives a re-encode
// and decode bit for bit; and when the whole input decodes, flipping one
// byte of one frame's CRC makes the read fail without yielding that
// frame's record or any after it.
func FuzzReadStream(f *testing.F) {
	s, err := Open(f.TempDir(), testConfig())
	if err != nil {
		f.Fatal(err)
	}
	key := testKey(3, lights.EastWest)
	for i := 0; i < 3; i++ {
		if err := s.Append(rec(key, float64(300*(i+1)), 90+float64(i))); err != nil {
			f.Fatal(err)
		}
	}
	var stream bytes.Buffer
	if _, n, err := s.StreamSinceFunc(0, nil, &stream); err != nil || n != 3 {
		f.Fatalf("StreamSinceFunc streamed %d records: %v", n, err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	valid := stream.Bytes()
	header := func(n uint32, crc uint32) []byte {
		var h [frameHeader]byte
		binary.LittleEndian.PutUint32(h[0:], n)
		binary.LittleEndian.PutUint32(h[4:], crc)
		return h[:]
	}
	f.Add(valid, uint16(0))
	f.Add(valid, uint16(7))
	f.Add(valid[:len(valid)-5], uint16(1))                                   // torn tail
	f.Add(header(0, crc32.Checksum(nil, castagnoli)), uint16(0))             // zero-length frame
	f.Add(append(header(maxFrameBytes+1, 0), valid[:16]...), uint16(0))      // above the frame bound
	f.Add(append(append([]byte(nil), valid...), header(3, 0)...), uint16(2)) // short last frame

	f.Fuzz(func(t *testing.T, data []byte, pick uint16) {
		var got []Record
		err := ReadStream(bytes.NewReader(data), func(r Record) error {
			again, derr := decodeRecord(r.encode(nil))
			if derr != nil {
				t.Fatalf("a yielded record does not decode again: %v", derr)
			}
			if !sameBits(again, r) {
				t.Fatalf("record changed on re-encode:\n%+v\n%+v", r, again)
			}
			got = append(got, r)
			return nil
		})
		if err != nil || len(got) == 0 {
			return
		}

		// The whole input is intact frames, one per record; corrupt one CRC.
		frame := int(pick) % len(got)
		off := 0
		for i := 0; i < frame; i++ {
			off += frameHeader + int(binary.LittleEndian.Uint32(data[off:]))
		}
		bad := append([]byte(nil), data...)
		bad[off+4+int(pick>>8)%4] ^= 0xff
		var kept []Record
		err = ReadStream(bytes.NewReader(bad), func(r Record) error {
			kept = append(kept, r)
			return nil
		})
		if err == nil {
			t.Fatalf("a flipped CRC byte in frame %d of %d went unnoticed", frame, len(got))
		}
		if len(kept) != frame {
			t.Fatalf("with frame %d corrupt, %d records were yielded, want %d", frame, len(kept), frame)
		}
		for i := range kept {
			if !sameBits(kept[i], got[i]) {
				t.Fatalf("record %d before the corrupt frame changed", i)
			}
		}
	})
}

// sameBits compares two records field by field, floats by bit pattern.
func sameBits(a, b Record) bool {
	fa := [...]float64{a.Cycle, a.Red, a.Green, a.GreenToRedPhase, a.RedToGreenPhase, a.WindowStart, a.WindowEnd, a.Quality}
	fb := [...]float64{b.Cycle, b.Red, b.Green, b.GreenToRedPhase, b.RedToGreenPhase, b.WindowStart, b.WindowEnd, b.Quality}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Seq == b.Seq && a.Light == b.Light && a.Approach == b.Approach &&
		a.Enhanced == b.Enhanced && a.Records == b.Records && a.Stops == b.Stops
}
