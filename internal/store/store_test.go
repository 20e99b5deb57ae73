package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

// testConfig keeps everything synchronous and tiny so tests exercise
// rotation and compaction without megabytes of data.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SyncEvery = 4
	cfg.SyncInterval = 0 // no background flusher: tests control fsync
	return cfg
}

func testKey(light int, app lights.Approach) mapmatch.Key {
	return mapmatch.Key{Light: roadnet.NodeID(light), Approach: app}
}

// rec builds a plausible record for key published at stream time t.
func rec(key mapmatch.Key, t, cycle float64) Record {
	return Record{
		Light:       int64(key.Light),
		Approach:    uint8(key.Approach),
		Cycle:       cycle,
		Red:         cycle * 0.4,
		Green:       cycle * 0.6,
		WindowStart: t - 1800,
		WindowEnd:   t,
		Quality:     0.5,
		Records:     100,
		Stops:       12,
	}
}

func mustOpen(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestRecordCodecRoundTrip(t *testing.T) {
	want := Record{
		Seq: 42, Light: 17, Approach: 1, Cycle: 121.5, Red: 55.25, Green: 66.25,
		GreenToRedPhase: 12.5, RedToGreenPhase: 67.75, WindowStart: 300, WindowEnd: 2100,
		Quality: 0.375, Records: 512, Stops: 31, Enhanced: true,
	}
	got, err := decodeRecord(want.encode(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	res := got.Result()
	back, ok := FromResult(res)
	if !ok {
		t.Fatal("FromResult rejected a valid result")
	}
	back.Seq = want.Seq
	if back != want {
		t.Fatalf("Result round trip mismatch:\n got %+v\nwant %+v", back, want)
	}
}

func TestAppendHistoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	kNS, kEW := testKey(3, lights.NorthSouth), testKey(3, lights.EastWest)
	for i := 0; i < 10; i++ {
		at := float64(1800 + 300*i)
		if err := s.Append(rec(kNS, at, 120), rec(kEW, at, 90)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	hist, err := s.History(kNS, 0, 1e9, 0)
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if len(hist) != 10 {
		t.Fatalf("History returned %d records, want 10", len(hist))
	}
	for i, r := range hist {
		if r.Key() != kNS {
			t.Fatalf("record %d has key %v", i, r.Key())
		}
		if i > 0 && r.Seq <= hist[i-1].Seq {
			t.Fatalf("history out of order at %d: %d after %d", i, r.Seq, hist[i-1].Seq)
		}
	}
	// Range and limit filters.
	hist, err = s.History(kNS, 2100, 2700, 0)
	if err != nil {
		t.Fatalf("History range: %v", err)
	}
	if len(hist) != 3 {
		t.Fatalf("ranged history returned %d records, want 3", len(hist))
	}
	hist, err = s.History(kNS, 0, 1e9, 2)
	if err != nil {
		t.Fatalf("History limit: %v", err)
	}
	if len(hist) != 2 || hist[1].WindowEnd != 1800+300*9 {
		t.Fatalf("limited history = %+v, want newest 2", hist)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAsOf(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	defer s.Close()
	k := testKey(5, lights.NorthSouth)
	for i := 0; i < 5; i++ {
		if err := s.Append(rec(k, float64(1800+300*i), 100+float64(i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	r, ok, err := s.AsOf(k, 2500)
	if err != nil || !ok {
		t.Fatalf("AsOf: ok=%v err=%v", ok, err)
	}
	if r.WindowEnd != 2400 || r.Cycle != 102 {
		t.Fatalf("AsOf(2500) = windowEnd %v cycle %v, want 2400/102", r.WindowEnd, r.Cycle)
	}
	if _, ok, _ := s.AsOf(k, 1000); ok {
		t.Fatal("AsOf before first record should report no estimate")
	}
	if _, ok, _ := s.AsOf(testKey(99, lights.EastWest), 2500); ok {
		t.Fatal("AsOf for unknown key should report no estimate")
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	k := testKey(7, lights.EastWest)
	for i := 0; i < 6; i++ {
		if err := s.Append(rec(k, float64(1800+300*i), 110)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	st, replayed := s2.RecoveredState()
	if replayed != 6 {
		t.Fatalf("replayed %d records, want 6 (no checkpoint)", replayed)
	}
	as, ok := st.Approaches[k]
	if !ok {
		t.Fatalf("recovered state missing %v", k)
	}
	if as.Result.WindowEnd != 1800+300*5 {
		t.Fatalf("recovered newest windowEnd %v, want %v", as.Result.WindowEnd, 1800+300*5)
	}
	// Appends must continue the sequence, not restart it.
	if err := s2.Append(rec(k, 4000, 110)); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	hist, err := s2.History(k, 0, 1e9, 0)
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if len(hist) != 7 || hist[6].Seq != 7 {
		t.Fatalf("after reopen history has %d records, last seq %d; want 7/7", len(hist), hist[len(hist)-1].Seq)
	}
}

// TestCrashRecoveryTruncatedTail kills the store mid-append: the final
// frame is torn (half written) and recovery must truncate it and resume
// from the last complete record — the satellite crash-recovery test.
func TestCrashRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	k := testKey(2, lights.NorthSouth)
	for i := 0; i < 5; i++ {
		if err := s.Append(rec(k, float64(1800+300*i), 95)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d segments)", err, len(segs))
	}
	last := segs[len(segs)-1]
	// Simulate the torn tail: chop half of the final frame off. Closing
	// the store after mutilating the file would re-truncate cleanly, so
	// abandon it (as a kill -9 would).
	if err := os.Truncate(last.path, last.size-(frameHeader+encodedRecordSize)/2); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	if !s2.Stats().TornTail {
		t.Fatal("recovery did not report a torn tail")
	}
	st, replayed := s2.RecoveredState()
	if replayed != 4 {
		t.Fatalf("replayed %d records, want 4 (fifth was torn)", replayed)
	}
	if got := st.Approaches[k].Result.WindowEnd; got != 1800+300*3 {
		t.Fatalf("recovered to windowEnd %v, want last complete record %v", got, 1800+300*3)
	}
	// The truncated store must pass a CRC walk.
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.OK() || rep.TornTailBytes != 0 {
		t.Fatalf("verify after recovery: problems %v, torn bytes %d", rep.Problems, rep.TornTailBytes)
	}
	if rep.Records != 4 {
		t.Fatalf("verify counted %d records, want 4", rep.Records)
	}
}

// TestCrashRecoveryCorruptTail flips a byte inside the final frame: the
// CRC must catch it and recovery must stop at the previous record.
func TestCrashRecoveryCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	k := testKey(4, lights.EastWest)
	for i := 0; i < 3; i++ {
		if err := s.Append(rec(k, float64(1800+300*i), 105)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	segs, _ := listSegments(dir)
	last := segs[len(segs)-1]
	raw, err := os.ReadFile(last.path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	raw[len(raw)-10] ^= 0xFF
	if err := os.WriteFile(last.path, raw, 0o644); err != nil {
		t.Fatalf("write segment: %v", err)
	}

	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	_, replayed := s2.RecoveredState()
	if replayed != 2 {
		t.Fatalf("replayed %d records, want 2 (third was corrupt)", replayed)
	}
	if rep, _ := Verify(dir); !rep.OK() {
		t.Fatalf("verify after recovery: %v", rep.Problems)
	}
}

// monitorFed is the state of a monitor fed one estimate of each cycle,
// 300 s apart from t = 300 on.
func monitorFed(cycles ...float64) core.MonitorState {
	var mon core.Monitor
	for i, c := range cycles {
		mon.Feed(core.CyclePoint{T: float64(300 * (i + 1)), Cycle: c})
	}
	return mon.State()
}

// TestCheckpointTailReplay proves the recovery contract: state equals
// checkpoint plus only the records appended after it, whose estimates
// and clock win while the monitor resumes from the checkpoint's state.
func TestCheckpointTailReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	k := testKey(9, lights.NorthSouth)
	state := core.EngineState{Now: 3600, Approaches: map[mapmatch.Key]core.ApproachState{}}
	mon := monitorFed(100, 100, 100, 100, 100, 100, 100, 100, 100, 130)
	for i := 0; i < 4; i++ {
		r := rec(k, float64(1800+300*i), 100)
		if err := s.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
		state.Approaches[k] = core.ApproachState{Result: r.Result(), Monitor: mon}
	}
	if err := s.Checkpoint(state); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Two post-checkpoint records: the tail.
	if err := s.Append(rec(k, 3300, 130), rec(k, 3600, 130)); err != nil {
		t.Fatalf("Append tail: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	st, replayed := s2.RecoveredState()
	if replayed != 2 {
		t.Fatalf("replayed %d records, want only the 2-record tail", replayed)
	}
	as := st.Approaches[k]
	if as.Result.WindowEnd != 3600 || as.Result.Cycle != 130 {
		t.Fatalf("recovered estimate windowEnd %v cycle %v, want 3600/130 (tail wins)", as.Result.WindowEnd, as.Result.Cycle)
	}
	// The tail feeds no monitor: it is the checkpoint's, exactly.
	if as.Monitor != mon {
		t.Fatalf("recovered monitor %+v, want the checkpoint's %+v", as.Monitor, mon)
	}
	if st.Now != 3600 {
		t.Fatalf("recovered Now %v, want 3600", st.Now)
	}
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	k := testKey(1, lights.NorthSouth)
	good := core.EngineState{Now: 1800, Approaches: map[mapmatch.Key]core.ApproachState{
		k: {Result: rec(k, 1800, 100).Result()},
	}}
	if err := s.Append(rec(k, 1800, 100)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Checkpoint(good); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Append(rec(k, 2100, 100)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	bad := core.EngineState{Now: 2100, Approaches: map[mapmatch.Key]core.ApproachState{
		k: {Result: rec(k, 2100, 100).Result()},
	}}
	if err := s.Checkpoint(bad); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Corrupt the newest checkpoint's payload.
	ckpts, err := listCheckpoints(dir)
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("listCheckpoints: %v (%d files)", err, len(ckpts))
	}
	raw, _ := os.ReadFile(ckpts[0])
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(ckpts[0], raw, 0o644); err != nil {
		t.Fatalf("corrupt checkpoint: %v", err)
	}

	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	st, replayed := s2.RecoveredState()
	// Fallback checkpoint covers seq 1, so the second record replays.
	if replayed != 1 {
		t.Fatalf("replayed %d records, want 1 after falling back to older checkpoint", replayed)
	}
	if got := st.Approaches[k].Result.WindowEnd; got != 2100 {
		t.Fatalf("recovered windowEnd %v, want 2100", got)
	}
	rep, _ := Verify(dir)
	if rep.OK() {
		t.Fatal("Verify should flag the corrupt checkpoint")
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	// Tiny segments: ~4 records each.
	cfg.SegmentMaxBytes = int64(len(segMagic) + 4*(frameHeader+encodedRecordSize))
	cfg.RetentionAge = 1000 // stream seconds
	s := mustOpen(t, dir, cfg)
	defer s.Close()
	k := testKey(6, lights.NorthSouth)
	for i := 0; i < 20; i++ {
		if err := s.Append(rec(k, float64(300*i), 100)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := s.Stats()
	if st.Segments < 4 {
		t.Fatalf("expected rotation to produce >= 4 segments, got %d", st.Segments)
	}
	// Without a checkpoint nothing may be compacted, however old.
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := s.Stats().SegmentsCompacted; got != 0 {
		t.Fatalf("compaction deleted %d segments with no checkpoint coverage", got)
	}
	// Checkpoint everything, then compaction may drop aged segments.
	state := core.EngineState{Now: 300 * 19, Approaches: map[mapmatch.Key]core.ApproachState{
		k: {Result: rec(k, 300*19, 100).Result()},
	}}
	if err := s.Checkpoint(state); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st = s.Stats()
	if st.SegmentsCompacted == 0 {
		t.Fatal("compaction deleted nothing despite age retention")
	}
	// The newest records must survive: history still answers near the head.
	hist, err := s.History(k, 300*18, 300*19, 0)
	if err != nil || len(hist) != 2 {
		t.Fatalf("history after compaction: %d records, err %v; want 2", len(hist), err)
	}
	// Old history is gone — the retention horizon moved.
	hist, _ = s.History(k, 0, 300, 0)
	if len(hist) != 0 {
		t.Fatalf("expected aged history to be compacted away, got %d records", len(hist))
	}
	if rep, _ := Verify(dir); !rep.OK() {
		t.Fatalf("verify after compaction: %v", rep.Problems)
	}
}

func TestRetentionBySize(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.SegmentMaxBytes = int64(len(segMagic) + 4*(frameHeader+encodedRecordSize))
	cfg.RetentionBytes = 3 * cfg.SegmentMaxBytes
	s := mustOpen(t, dir, cfg)
	defer s.Close()
	k := testKey(8, lights.EastWest)
	for i := 0; i < 40; i++ {
		if err := s.Append(rec(k, float64(300*i), 100)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	state := core.EngineState{Now: 300 * 39, Approaches: map[mapmatch.Key]core.ApproachState{
		k: {Result: rec(k, 300*39, 100).Result()},
	}}
	if err := s.Checkpoint(state); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if st.SegmentBytes > cfg.RetentionBytes+cfg.SegmentMaxBytes {
		t.Fatalf("size retention left %d bytes, cap %d", st.SegmentBytes, cfg.RetentionBytes)
	}
	if st.SegmentsCompacted == 0 {
		t.Fatal("size retention compacted nothing")
	}
}

func TestFsyncBatching(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.SyncEvery = 8
	s := mustOpen(t, dir, cfg)
	defer s.Close()
	k := testKey(3, lights.NorthSouth)
	for i := 0; i < 16; i++ {
		if err := s.Append(rec(k, float64(300*i), 100)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// 16 records at SyncEvery=8 → exactly 2 fsyncs, not 16.
	if got := s.Stats().Fsyncs; got != 2 {
		t.Fatalf("batched fsync count = %d, want 2", got)
	}
}

func TestBackgroundSyncInterval(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.SyncEvery = 1000
	cfg.SyncInterval = 10 * time.Millisecond
	s := mustOpen(t, dir, cfg)
	defer s.Close()
	k := testKey(3, lights.NorthSouth)
	if err := s.Append(rec(k, 300, 100)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never fsynced the pending record")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestOpenEmptyDirAndStats(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	s := mustOpen(t, dir, testConfig())
	defer s.Close()
	st := s.Stats()
	if st.Segments != 1 || st.LastSeq != 0 || st.TornTail {
		t.Fatalf("fresh store stats = %+v", st)
	}
	if _, replayed := s.RecoveredState(); replayed != 0 {
		t.Fatalf("fresh store replayed %d records", replayed)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.SegmentMaxBytes = 10 },
		func(c *Config) { c.SyncEvery = 0 },
		func(c *Config) { c.SyncInterval = -time.Second },
		func(c *Config) { c.RetentionAge = -1 },
		func(c *Config) { c.RetentionBytes = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// seriesCheckpointPayload is the JSON a checkpoint of the earlier format
// carried for one approach: its monitor as the whole estimate series.
func seriesCheckpointPayload(k mapmatch.Key) []byte {
	return []byte(fmt.Sprintf(`{"last_seq":1,"now_s":1800,"approaches":[{"estimate":{"Light":%d,"Approach":%d,"Cycle":90,"WindowStart":0,"WindowEnd":1800},`+
		`"monitor":[{"t_s":1500,"cycle_s":90},{"t_s":1800,"cycle_s":90}]}]}`, k.Light, k.Approach))
}

// TestSeriesCheckpointRefused: a checkpoint file of the series-carrying
// format is refused like a corrupt one — Open recovers from an older
// checkpoint of the current format and Verify lists the file — and a peer
// body of that format does not decode.
func TestSeriesCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	k := testKey(4, lights.EastWest)
	if err := s.Append(rec(k, 1500, 90)); err != nil {
		t.Fatal(err)
	}
	good := core.EngineState{Now: 1500, Approaches: map[mapmatch.Key]core.ApproachState{
		k: {Result: rec(k, 1500, 90).Result(), Monitor: monitorFed(90, 90)},
	}}
	if err := s.Checkpoint(good); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(k, 1800, 90)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	payload := seriesCheckpointPayload(k)
	old := []byte("TLCKPT01")
	old = binary.LittleEndian.AppendUint32(old, uint32(len(payload)))
	old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(payload, castagnoli))
	if err := os.WriteFile(checkpointPath(dir, 2), append(old, payload...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	st, replayed := s2.RecoveredState()
	if replayed != 1 || st.Approaches[k].Monitor != good.Approaches[k].Monitor || st.Now != 1800 {
		t.Fatalf("recovered %+v with %d records replayed; want the older checkpoint's monitor and one record replayed", st, replayed)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], filepath.Base(checkpointPath(dir, 2))) {
		t.Fatalf("Verify problems %q, want the series-format checkpoint listed", rep.Problems)
	}
	if _, _, err := DecodeState(payload); err == nil {
		t.Fatal("a peer body of the series format decoded")
	}
}

// TestCompactionKeepsTwoCheckpoints: compaction keeps the two newest
// checkpoint files and deletes the rest, and a reopen recovers from the
// newest.
func TestCompactionKeepsTwoCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testConfig())
	k := testKey(2, lights.NorthSouth)
	var paths []string
	for i := 1; i <= 3; i++ {
		r := rec(k, float64(300*i), 90+float64(i))
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		st := core.EngineState{Now: r.WindowEnd, Approaches: map[mapmatch.Key]core.ApproachState{
			k: {Result: r.Result(), Monitor: monitorFed(90, 90+float64(i))},
		}}
		if err := s.Checkpoint(st); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, checkpointPath(dir, uint64(i)))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.CheckpointsCompacted != 1 || got.CheckpointFiles != 2 {
		t.Fatalf("%d checkpoints compacted, %d on disk; want 1 and 2", got.CheckpointsCompacted, got.CheckpointFiles)
	}
	left, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(left, []string{paths[2], paths[1]}) {
		t.Fatalf("checkpoints left %q, want the two newest of %q", left, paths)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, testConfig())
	defer s2.Close()
	st, replayed := s2.RecoveredState()
	if as := st.Approaches[k]; replayed != 0 || as.Result.Cycle != 93 || as.Monitor != monitorFed(90, 93) {
		t.Fatalf("reopen recovered %+v with %d records replayed, want the newest checkpoint's", as, replayed)
	}
}

// TestCheckpointSizeIndependentOfUptime: a checkpoint carries each
// monitor's fixed-size state, so a week of 300 s rounds encodes no larger
// than a few of them.
func TestCheckpointSizeIndependentOfUptime(t *testing.T) {
	k := testKey(7, lights.NorthSouth)
	var mon core.Monitor
	encoded := func(at float64) int {
		b, err := EncodeState(core.EngineState{Now: at, Approaches: map[mapmatch.Key]core.ApproachState{
			k: {Result: rec(k, at, 97.25).Result(), Monitor: mon.State()},
		}}, uint64(at/300))
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	var early int
	for i := 1; i <= 2016; i++ {
		at := float64(300 * i)
		mon.Feed(core.CyclePoint{T: at, Cycle: 97.25 + float64(i%7-3)*0.875})
		if i == 10 {
			early = encoded(at)
		}
	}
	if week := encoded(2016 * 300); week > 1024 || week > early+64 {
		t.Fatalf("a week of rounds encodes to %d bytes, after 10 rounds %d; want at most 1 KiB and 64 B more", week, early)
	}
}

// TestCheckpointCompacts: with no Compact call, a Checkpoint deletes every
// sealed segment it covers that is past RetentionAge or over
// RetentionBytes, and every checkpoint file past the newest
// keepCheckpoints; Open compacts what its recovered checkpoint covers; and
// a segment holding records newer than the newest checkpoint survives any
// pressure, rotations included (DESIGN §9's invariant (a)).
func TestCheckpointCompacts(t *testing.T) {
	k := testKey(4, lights.EastWest)
	// Four records fill a segment, so records 1..20 seal segments 1..5,
	// record i carrying stream time 300·(i−1).
	cfg := testConfig()
	cfg.SegmentMaxBytes = int64(len(segMagic) + 4*(frameHeader+encodedRecordSize))
	appendRecs := func(t *testing.T, s *Store, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := s.Append(rec(k, float64(300*i), 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkpoint := func(t *testing.T, s *Store, now float64) {
		t.Helper()
		st := core.EngineState{Now: now, Approaches: map[mapmatch.Key]core.ApproachState{k: {Result: rec(k, now, 100).Result()}}}
		if err := s.Checkpoint(st); err != nil {
			t.Fatal(err)
		}
	}
	// kept is the first record still in the WAL (−1 for none) and the
	// number of records from it on.
	kept := func(t *testing.T, s *Store) (first float64, n int) {
		t.Helper()
		hist, err := s.History(k, 0, 1e9, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) == 0 {
			return -1, 0
		}
		return hist[0].WindowEnd, len(hist)
	}
	for _, c := range []struct {
		name   string
		retain func(*Config)
		// first is the oldest record the checkpoint at record 20 leaves
		// (−1 for none), left how many it leaves.
		first float64
		left  int
	}{
		// Segments 1..4 end before 5700−300; segment 5 (4800..5700) does not.
		{"age", func(c *Config) { c.RetentionAge = 300 }, 4800, 4},
		// Every covered sealed segment is over a one-byte cap.
		{"bytes", func(c *Config) { c.RetentionBytes = 1 }, -1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := cfg
			c.retain(&cfg)
			s := mustOpen(t, t.TempDir(), cfg)
			defer s.Close()
			appendRecs(t, s, 0, 16)
			if first, n := kept(t, s); first != 0 || n != 16 {
				t.Fatalf("before any checkpoint the WAL starts at %v with %d records; want all 16", first, n)
			}
			// A checkpoint after each of records 17..20.
			for i := 16; i < 20; i++ {
				appendRecs(t, s, i, i+1)
				checkpoint(t, s, float64(300*i))
			}
			if st := s.Stats(); st.CheckpointFiles != keepCheckpoints || st.CheckpointsCompacted != 2 {
				t.Fatalf("%d checkpoint files, %d compacted; want %d and 2", st.CheckpointFiles, st.CheckpointsCompacted, keepCheckpoints)
			}
			if ckpts, err := listCheckpoints(s.Dir()); err != nil || len(ckpts) != keepCheckpoints {
				t.Fatalf("%d checkpoint files on disk (%v), want %d", len(ckpts), err, keepCheckpoints)
			}
			if first, n := kept(t, s); first != c.first || n != c.left {
				t.Fatalf("after the checkpoints the WAL starts at %v with %d records; want %v with %d", first, n, c.first, c.left)
			}
			// Twenty more records under the same pressure, none covered: the
			// rotations compact (segment 5 ages out under RetentionAge) and
			// delete none of them.
			appendRecs(t, s, 20, 40)
			if first, n := kept(t, s); first != 6000 || n != 20 {
				t.Fatalf("WAL starts at %v with %d records; want 6000 and the 20 uncovered", first, n)
			}
			if rep, _ := Verify(s.Dir()); !rep.OK() {
				t.Fatalf("verify: %v", rep.Problems)
			}
		})
	}

	t.Run("open", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, cfg)
		appendRecs(t, s, 0, 20)
		checkpoint(t, s, 300*19)
		appendRecs(t, s, 20, 24) // newer than the checkpoint
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		pressed := cfg
		pressed.RetentionBytes = 1
		s2 := mustOpen(t, dir, pressed)
		defer s2.Close()
		if st := s2.Stats(); st.SegmentsCompacted != 5 {
			t.Fatalf("Open compacted %d segments, want the 5 the checkpoint covers", st.SegmentsCompacted)
		}
		if first, n := kept(t, s2); first != 6000 || n != 4 {
			t.Fatalf("WAL starts at %v with %d records after Open; want the 4 after the checkpoint", first, n)
		}
	})
}
