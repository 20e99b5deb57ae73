package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"testing"

	"taxilight/internal/core"
	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
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

// FuzzDecodeState feeds DecodeState the bytes a checkpoint file's payload
// or a peer's /cluster/v1/ckpt body may carry. It never panics; a decoded
// state re-encodes and decodes to the same state; and an engine that
// restores it runs a round at a later time without panicking, which holds
// only because RestoreState drops a monitor state that Feed would choke on.
func FuzzDecodeState(f *testing.F) {
	k1, k2 := testKey(3, lights.NorthSouth), testKey(5, lights.EastWest)
	// A change to 150 s confirmed on the newest point's truncated median,
	// announced and pending, with a run of two under way.
	mon := monitorFed(90, 90, 150, 150, 150)
	if !mon.Pending || mon.RunLen != 2 {
		f.Fatalf("seed monitor %+v: want a run of two with an announcement pending", mon)
	}
	valid, err := EncodeState(core.EngineState{Now: 1800, Approaches: map[mapmatch.Key]core.ApproachState{
		k1: {Result: rec(k1, 1800, 150).Result(), Monitor: mon},
		k2: {Result: rec(k2, 1500, 90).Result(), Monitor: monitorFed(90)},
	}}, 42)
	if err != nil {
		f.Fatal(err)
	}
	// The round reaches both seed monitors: it feeds them at its time.
	st, _, err := DecodeState(valid)
	if err != nil {
		f.Fatal(err)
	}
	eng, at := roundAfterRestore(f, st)
	for k, as := range eng.ExportState().Approaches {
		if m := as.Monitor; m.Last[1].T != at {
			f.Fatalf("%v: the round at %v left the monitor at %+v", k, at, m)
		}
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // a truncated body
	f.Add(seriesCheckpointPayload(k1))
	f.Add([]byte(`{"now_s":1800,"approaches":[{"estimate":{"Light":3,"Cycle":90,"WindowEnd":1500},` +
		`"monitor":{"held":2,"last_t_s":[1500,9000],"last_cycle_s":[90,90],"plateau_s":90}}]}`)) // a point ahead of the clock

	f.Fuzz(func(t *testing.T, data []byte) {
		st, lastSeq, err := DecodeState(data)
		if err != nil {
			return
		}
		b, err := EncodeState(st, lastSeq)
		if err != nil {
			t.Fatalf("a decoded state does not encode: %v", err)
		}
		again, againSeq, err := DecodeState(b)
		if err != nil || againSeq != lastSeq || !reflect.DeepEqual(again, st) {
			t.Fatalf("state changed on re-encode (%v):\n%+v\n%+v", err, st, again)
		}
		roundAfterRestore(t, st)
	})
}

// roundAfterRestore restores st into a new engine and runs one round a
// re-estimation interval past its clock, with records for the first two
// keys, and returns the engine and the round's time.
func roundAfterRestore(t testing.TB, st core.EngineState) (*core.Engine, float64) {
	cfg := core.DefaultRealtimeConfig()
	cfg.Pipeline.Workers = 1
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.RestoreState(st)
	at := eng.Now() + cfg.Interval
	var keys []mapmatch.Key
	for k := range st.Approaches {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b mapmatch.Key) int {
		return cmp.Or(cmp.Compare(a.Light, b.Light), cmp.Compare(a.Approach, b.Approach))
	})
	for _, k := range keys[:min(len(keys), 2)] {
		eng.Ingest(signalRecords(k, at-cfg.Window, at))
	}
	if _, err := eng.Advance(at); err != nil {
		t.Fatal(err)
	}
	return eng, at
}

// signalRecords are four taxis of k's own passing its stop line over
// [t0, t1), reporting every 12 s: stopped at it through each red of a
// 90 s cycle, moving through each green.
func signalRecords(k mapmatch.Key, t0, t1 float64) []mapmatch.Matched {
	var out []mapmatch.Matched
	for p := 0; p < 4; p++ {
		plate := fmt.Sprintf("%d%v-%d", k.Light, k.Approach, p)
		for t := t0 + float64(3*p); t < t1; t += 12 {
			m := mapmatch.Matched{Plate: plate, Light: k.Light, Approach: k.Approach, T: t, DistToStop: 8, Snapped: geo.XY{X: 8}}
			if math.Mod(t, 90) >= 36 {
				m.SpeedKMH = 30 + 15*math.Sin(t/7.3)
				m.DistToStop = 10 + float64(int(t)*37%100)
				m.Snapped.X = m.DistToStop
			}
			out = append(out, m)
		}
	}
	return out
}
