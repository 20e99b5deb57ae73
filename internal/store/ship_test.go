package store

import (
	"bytes"
	"reflect"
	"testing"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
)

// TestStreamSinceRoundTrip appends across a segment rotation, streams
// from several cut points and checks the decoded records are exactly
// the suffix with Seq > from.
func TestStreamSinceRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.SegmentMaxBytes = 4 * int64(frameHeader+encodedRecordSize) // force rotation
	s := mustOpen(t, t.TempDir(), cfg)
	defer s.Close()

	key := testKey(7, lights.NorthSouth)
	var want []Record
	for i := 0; i < 11; i++ {
		r := rec(key, float64(300*(i+1)), 90+float64(i))
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := s.History(key, 0, 1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	want = hist
	if len(want) != 11 {
		t.Fatalf("history has %d records, want 11", len(want))
	}
	if s.LastSeq() != want[len(want)-1].Seq {
		t.Fatalf("LastSeq = %d, want %d", s.LastSeq(), want[len(want)-1].Seq)
	}

	for _, from := range []uint64{0, 3, want[len(want)-1].Seq} {
		var buf bytes.Buffer
		last, n, err := s.StreamSince(from, &buf)
		if err != nil {
			t.Fatalf("StreamSince(%d): %v", from, err)
		}
		var got []Record
		if err := ReadStream(&buf, func(r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("ReadStream(from=%d): %v", from, err)
		}
		var exp []Record
		for _, r := range want {
			if r.Seq > from {
				exp = append(exp, r)
			}
		}
		if n != len(exp) {
			t.Fatalf("from=%d: streamed %d records, want %d", from, n, len(exp))
		}
		if len(exp) > 0 && last != exp[len(exp)-1].Seq {
			t.Fatalf("from=%d: last=%d, want %d", from, last, exp[len(exp)-1].Seq)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("from=%d: stream diverged:\ngot  %+v\nwant %+v", from, got, exp)
		}
	}
}

// TestStreamSinceFuncFiltersByKeySet interleaves two keys' appends
// across a rotation and checks the filtered export carries exactly one
// key's records — the rebalance transfer a joining node bulk-pulls.
func TestStreamSinceFuncFiltersByKeySet(t *testing.T) {
	cfg := testConfig()
	cfg.SegmentMaxBytes = 4 * int64(frameHeader+encodedRecordSize)
	s := mustOpen(t, t.TempDir(), cfg)
	defer s.Close()

	kept := testKey(7, lights.NorthSouth)
	other := testKey(8, lights.EastWest)
	for i := 0; i < 6; i++ {
		if err := s.Append(rec(kept, float64(300*(i+1)), 90)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(rec(other, float64(300*(i+1)), 110)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.History(kept, 0, 1e9, 0)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	last, n, err := s.StreamSinceFunc(0, func(r Record) bool { return r.Key() == kept }, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := ReadStream(&buf, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered stream diverged (%d records):\ngot  %+v\nwant %+v", n, got, want)
	}
	if last != want[len(want)-1].Seq {
		t.Fatalf("last = %d, want %d", last, want[len(want)-1].Seq)
	}
	for _, r := range got {
		if r.Key() != kept {
			t.Fatalf("filtered stream leaked key %v", r.Key())
		}
	}
}

// TestReadStreamRejectsTorn truncates a stream mid-frame and checks the
// reader fails instead of silently accepting a prefix.
func TestReadStreamRejectsTorn(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testConfig())
	defer s.Close()
	if err := s.Append(rec(testKey(1, lights.EastWest), 300, 100)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, _, err := s.StreamSince(0, &buf); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-5]
	if err := ReadStream(bytes.NewReader(torn), func(Record) error { return nil }); err == nil {
		t.Fatal("torn stream decoded without error")
	}
}

// TestEncodeDecodeStateRoundTrip pushes engine state through the wire
// encoding a replica bootstraps from.
func TestEncodeDecodeStateRoundTrip(t *testing.T) {
	k1, k2 := testKey(3, lights.NorthSouth), testKey(5, lights.EastWest)
	st := core.EngineState{
		Now: 1234.5,
		Approaches: map[mapmatch.Key]core.ApproachState{
			k1: {Result: rec(k1, 600, 100).Result(), Monitor: monitorFed(100, 130)},
			k2: {Result: rec(k2, 900, 120).Result()},
		},
	}
	b, err := EncodeState(st, 42)
	if err != nil {
		t.Fatal(err)
	}
	got, lastSeq, err := DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != 42 {
		t.Fatalf("lastSeq = %d, want 42", lastSeq)
	}
	if got.Now != st.Now || len(got.Approaches) != 2 {
		t.Fatalf("decoded state mismatch: %+v", got)
	}
	for k, as := range st.Approaches {
		want := as.Result
		want.Key = k
		gas, ok := got.Approaches[k]
		if !ok {
			t.Fatalf("key %v missing after roundtrip", k)
		}
		if !reflect.DeepEqual(gas.Result, want) {
			t.Fatalf("key %v result diverged:\ngot  %+v\nwant %+v", k, gas.Result, want)
		}
		if gas.Monitor != as.Monitor {
			t.Fatalf("key %v monitor %+v, want %+v", k, gas.Monitor, as.Monitor)
		}
	}
}
