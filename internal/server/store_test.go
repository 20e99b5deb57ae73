package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/store"
)

// newStoreServer builds a 2-shard server backed by a fresh store in a
// temp dir that checkpoints only at StopIngest.
func newStoreServer(t *testing.T, dir string) (*Server, *store.Store) {
	t.Helper()
	scfg := store.DefaultConfig()
	scfg.SyncEvery = 1
	scfg.CompactEvery = 0
	st, err := store.Open(dir, scfg)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	s := newTestServer(t, func(cfg *Config) {
		cfg.Store = st
		cfg.CheckpointInterval = 0 // checkpoint only at StopIngest
	})
	return s, st
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPublishPersistsToWAL proves the async persistence path: estimates
// published on the engines reach the WAL without any ingest source, and
// StopIngest leaves a final checkpoint behind.
func TestPublishPersistsToWAL(t *testing.T) {
	dir := t.TempDir()
	s, st := newStoreServer(t, dir)
	defer st.Close()
	s.Start()
	if got := cap(s.persistCh); got != 256 {
		t.Fatalf("persist queue holds %d batches, want 256", got)
	}

	k1 := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	k2 := mapmatch.Key{Light: 5, Approach: lights.EastWest}
	s.PrimeResults([]core.Result{primedResult(k1)})
	s.PrimeResults([]core.Result{primedResult(k2)})

	waitFor(t, "estimates to reach the WAL", func() bool { return s.met.walAppended.Load() >= 2 })
	s.StopIngest()

	if got := st.Stats().CheckpointsWritten; got < 1 {
		t.Fatalf("StopIngest wrote %d checkpoints, want >= 1", got)
	}
	hist, err := st.History(k1, 0, 1e12, 0)
	if err != nil || len(hist) != 1 {
		t.Fatalf("history for %v: %d records, err %v; want 1", k1, len(hist), err)
	}
	if hist[0].Cycle != 100 {
		t.Fatalf("persisted cycle %v, want 100", hist[0].Cycle)
	}
}

// TestPrimeResultsPersistsWithoutABatch proves a promoted estimate is
// durable with no source running: PrimeResults persists what it primed
// before it returns, and the WAL gets it. After StopIngest has closed
// the store queue, primes — also ones racing the shutdown — neither
// panic on the closed queue nor append.
func TestPrimeResultsPersistsWithoutABatch(t *testing.T) {
	dir := t.TempDir()
	s, st := newStoreServer(t, dir)
	defer st.Close()
	s.Start()

	k := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	if n := s.PrimeResults([]core.Result{primedResult(k)}); n != 1 {
		t.Fatalf("PrimeResults accepted %d, want 1", n)
	}
	sh := s.shardFor(k)
	sh.persistMu.Lock()
	persisted := sh.lastVersion
	sh.persistMu.Unlock()
	if v := sh.engine.Version(); persisted != v {
		t.Fatalf("PrimeResults returned with version %d persisted, engine at %d", persisted, v)
	}
	waitFor(t, "the promoted estimate to reach the WAL", func() bool { return s.met.walAppended.Load() >= 1 })

	late := mapmatch.Key{Light: 5, Approach: lights.EastWest}
	racing := make(chan struct{})
	go func() {
		defer close(racing)
		res := primedResult(late)
		for i := 0; i < 50; i++ {
			res.WindowEnd++
			s.PrimeResults([]core.Result{res})
		}
	}()
	s.StopIngest()
	<-racing

	appended := st.Stats().AppendedRecords
	res := primedResult(late)
	res.WindowEnd += 1000
	if n := s.PrimeResults([]core.Result{res}); n != 1 {
		t.Fatalf("PrimeResults after StopIngest accepted %d, want 1", n)
	}
	if got := st.Stats().AppendedRecords; got != appended {
		t.Fatalf("PrimeResults after StopIngest appended %d records", got-appended)
	}
	hist, err := st.History(k, 0, 1e12, 0)
	if err != nil || len(hist) != 1 {
		t.Fatalf("history for %v: %d records, err %v; want 1", k, len(hist), err)
	}
}

// TestWarmStartFromStore is the restart story: a second server restores
// the first one's state from the store, /healthz reports the warm start
// before any trace arrives, /v1/state answers, and the restored
// estimates are not re-appended to the WAL.
func TestWarmStartFromStore(t *testing.T) {
	dir := t.TempDir()
	s, st := newStoreServer(t, dir)
	s.Start()
	k := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(k)})
	waitFor(t, "estimate to reach the WAL", func() bool { return s.met.walAppended.Load() >= 1 })
	s.StopIngest()
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// "Restart": fresh store handle, fresh server, no feed.
	s2, st2 := newStoreServer(t, dir)
	defer st2.Close()
	recovered, _ := st2.RecoveredState()
	if n := s2.Restore(recovered); n != 1 {
		t.Fatalf("Restore restored %d approaches, want 1", n)
	}
	appendedBefore := st2.Stats().AppendedRecords

	rec := get(t, s2, "/healthz", nil)
	var hz struct {
		Fresh     int   `json:"fresh"`
		WarmStart int64 `json:"warm_start_approaches"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if hz.WarmStart != 1 || hz.Fresh != 1 {
		t.Fatalf("healthz after warm start = %+v, want 1 warm-started fresh approach", hz)
	}

	rec = get(t, s2, "/v1/state/3/NS?t=10", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/state after warm start: %d %s", rec.Code, rec.Body.String())
	}
	body := decodeState(t, rec)
	if body.State != "red" || body.Estimate == nil || body.Estimate.Cycle != 100 {
		t.Fatalf("warm-started state = %+v, want red with cycle 100", body)
	}

	// The restored estimate must not be persisted a second time.
	s2.Start()
	time.Sleep(50 * time.Millisecond) // a few ticks
	s2.StopIngest()
	if got := st2.Stats().AppendedRecords; got != appendedBefore {
		t.Fatalf("restart re-appended estimates: %d -> %d", appendedBefore, got)
	}
	// History still holds exactly the one pre-restart record.
	hist, err := st2.History(k, 0, 1e12, 0)
	if err != nil || len(hist) != 1 {
		t.Fatalf("history after restart: %d records, err %v; want 1", len(hist), err)
	}
}

// TestHistoryEndpoint exercises /v1/history: ranges, limits, ordering
// and error cases.
func TestHistoryEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, st := newStoreServer(t, dir)
	defer st.Close()
	k := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	// Persist a 5-point series directly (the publish path is covered
	// elsewhere): windowEnd 1800, 2100, ... 3000.
	for i := 0; i < 5; i++ {
		res := primedResult(k)
		res.WindowStart = float64(300 * i)
		res.WindowEnd = 1800 + float64(300*i)
		res.Cycle = 100 + float64(i)
		rec, ok := store.FromResult(res)
		if !ok {
			t.Fatal("FromResult rejected test result")
		}
		if err := st.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}

	var doc struct {
		Count     int  `json:"count"`
		Truncated bool `json:"truncated"`
		Estimates []struct {
			Seq       uint64  `json:"seq"`
			Cycle     float64 `json:"cycle_s"`
			WindowEnd float64 `json:"window_end_s"`
		} `json:"estimates"`
	}
	rec := get(t, s, "/v1/history/3/NS", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/history: %d %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("history body: %v", err)
	}
	if doc.Count != 5 || len(doc.Estimates) != 5 {
		t.Fatalf("full history count %d, want 5", doc.Count)
	}
	for i := 1; i < len(doc.Estimates); i++ {
		if doc.Estimates[i].Seq <= doc.Estimates[i-1].Seq {
			t.Fatalf("history out of order: %+v", doc.Estimates)
		}
	}

	rec = get(t, s, "/v1/history/3/NS?from=2100&to=2700", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("ranged history body: %v", err)
	}
	if doc.Count != 3 {
		t.Fatalf("ranged history count %d, want 3", doc.Count)
	}

	rec = get(t, s, "/v1/history/3/NS?limit=2", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("limited history body: %v", err)
	}
	if doc.Count != 2 || !doc.Truncated {
		t.Fatalf("limited history = count %d truncated %v, want 2/true", doc.Count, doc.Truncated)
	}
	if doc.Estimates[1].WindowEnd != 3000 {
		t.Fatalf("limit must keep the newest records, got %+v", doc.Estimates)
	}

	// Unknown approach: empty series, not an error.
	rec = get(t, s, "/v1/history/99/EW", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("empty history body: %v", err)
	}
	if rec.Code != http.StatusOK || doc.Count != 0 {
		t.Fatalf("unknown-key history: code %d count %d, want 200/0", rec.Code, doc.Count)
	}

	for _, bad := range []string{
		"/v1/history/3/NS?from=x",
		"/v1/history/3/NS?to=x",
		"/v1/history/3/NS?limit=0",
		"/v1/history/3/NS?from=10&to=5",
		"/v1/history/3/XX",
	} {
		if rec := get(t, s, bad, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", bad, rec.Code)
		}
	}
}

// TestAsOfEndpoint exercises the time-travel parameter on /v1/state.
func TestAsOfEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, st := newStoreServer(t, dir)
	defer st.Close()
	k := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	// Two generations of schedule: cycle 100 anchored at 0 published at
	// t=1800, then cycle 80 published at t=3600.
	old := primedResult(k)
	newer := primedResult(k)
	newer.Cycle, newer.Green = 80, 40
	newer.WindowStart, newer.WindowEnd = 1800, 3600
	for _, res := range []core.Result{old, newer} {
		rec, _ := store.FromResult(res)
		if err := st.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// The live engine knows only the newest schedule.
	s.PrimeResults([]core.Result{newer})

	// As-of t=2000: the old schedule (cycle 100) was current; at phase
	// 0 of the old anchor the light is red with 40 s to go.
	rec := get(t, s, "/v1/state/3/NS?asof=2000", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("asof: %d %s", rec.Code, rec.Body.String())
	}
	body := decodeState(t, rec)
	if body.Estimate == nil || body.Estimate.Cycle != 100 {
		t.Fatalf("asof=2000 served cycle %+v, want the superseded 100 s schedule", body.Estimate)
	}
	if body.Health != "historical" {
		t.Fatalf("asof health %q, want historical", body.Health)
	}
	if body.State != "red" || body.Countdown == nil || *body.Countdown != 40 {
		t.Fatalf("asof=2000 state = %+v, want red countdown 40", body)
	}

	// As-of t=4000: the newer schedule applies.
	rec = get(t, s, "/v1/state/3/NS?asof=4000", nil)
	body = decodeState(t, rec)
	if body.Estimate == nil || body.Estimate.Cycle != 80 {
		t.Fatalf("asof=4000 served cycle %+v, want 80", body.Estimate)
	}

	// Before any persisted estimate: 404.
	if rec := get(t, s, "/v1/state/3/NS?asof=100", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("asof=100: code %d, want 404", rec.Code)
	}
	// Malformed parameter: 400.
	if rec := get(t, s, "/v1/state/3/NS?asof=x", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("asof=x: code %d, want 400", rec.Code)
	}
}

// TestStoreEndpointsWithoutStore pins the degraded behaviour: without
// -store-dir the durable endpoints say so instead of pretending.
func TestStoreEndpointsWithoutStore(t *testing.T) {
	s := newTestServer(t, nil)
	if rec := get(t, s, "/v1/history/3/NS", nil); rec.Code != http.StatusNotImplemented {
		t.Fatalf("/v1/history without store: code %d, want 501", rec.Code)
	}
	if rec := get(t, s, "/v1/state/3/NS?asof=10", nil); rec.Code != http.StatusNotImplemented {
		t.Fatalf("asof without store: code %d, want 501", rec.Code)
	}
}

// TestStoreWriteFailureDegradesToServingOnly pulls the store out from
// under a running daemon: once StoreFailureBudget consecutive appends
// fail the server latches serving-only mode — /healthz says so, the
// error counter and gauge appear in /metrics, checkpoints stop, and
// the read path keeps answering.
func TestStoreWriteFailureDegradesToServingOnly(t *testing.T) {
	dir := t.TempDir()
	scfg := store.DefaultConfig()
	scfg.SyncEvery = 1
	scfg.CompactEvery = 0
	st, err := store.Open(dir, scfg)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	s := newTestServer(t, func(cfg *Config) {
		cfg.Store = st
		cfg.CheckpointInterval = 0
		cfg.StoreFailureBudget = 1
	})
	s.Start()

	// Fail the disk out from under the daemon: every append now errors.
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
	k := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(k)})
	waitFor(t, "store to degrade", s.StoreDegraded)

	hz := get(t, s, "/healthz", nil)
	if hz.Code != http.StatusOK || !strings.Contains(hz.Body.String(), `"store":"degraded"`) {
		t.Fatalf("healthz after store failure = %d %s, want 200 with store degraded", hz.Code, hz.Body.String())
	}
	// Serving-only: reads still answer.
	if rec := get(t, s, "/v1/snapshot", nil); rec.Code != http.StatusOK {
		t.Fatalf("/v1/snapshot while degraded: %d", rec.Code)
	}
	if rec := get(t, s, "/v1/state/3/NS?t=10", nil); rec.Code != http.StatusOK {
		t.Fatalf("/v1/state while degraded: %d", rec.Code)
	}
	body := get(t, s, "/metrics", nil).Body.String()
	if !strings.Contains(body, "lightd_store_degraded 1") {
		t.Fatal("/metrics missing lightd_store_degraded 1")
	}
	if !strings.Contains(body, "lightd_store_write_errors_total 1") {
		t.Fatal("/metrics missing lightd_store_write_errors_total")
	}

	// Further publishes are dropped, not retried into the dead store,
	// and shutdown skips the checkpoint instead of erroring.
	s.PrimeResults([]core.Result{primedResult(k)})
	s.StopIngest()
	if got := st.Stats().CheckpointsWritten; got != 0 {
		t.Fatalf("degraded shutdown wrote %d checkpoints, want 0", got)
	}
}

// TestMetricsExposeStoreSeries checks the WAL/compaction series appear
// once a store is configured.
func TestMetricsExposeStoreSeries(t *testing.T) {
	dir := t.TempDir()
	s, st := newStoreServer(t, dir)
	defer st.Close()
	s.Start()
	k := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(k)})
	waitFor(t, "estimate to reach the WAL", func() bool { return s.met.walAppended.Load() >= 1 })
	s.StopIngest()

	body := get(t, s, "/metrics", nil).Body.String()
	for _, want := range []string{
		`lightd_wal_records_total{outcome="appended"} 1`,
		"lightd_wal_fsyncs_total",
		"lightd_wal_segments 1",
		`lightd_checkpoints_total{outcome="written"} 1`,
		"lightd_wal_append_duration_seconds_count",
		"lightd_wal_fsync_duration_seconds_count",
		"lightd_compaction_runs_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// walResult builds a distinct estimate for one append.
func walResult(i int) core.Result {
	return core.Result{
		Key:   mapmatch.Key{Light: roadnet.NodeID(i % 64), Approach: lights.Approach(i % 2)},
		Cycle: 90 + float64(i%40), Red: 35, Green: 55 + float64(i%40),
		WindowStart: float64(300 * i), WindowEnd: 1800 + float64(300*i),
		Records: 100, Quality: 0.6,
	}
}

// BenchmarkHistoryQuery measures the as-of and ranged read paths over a
// multi-segment WAL (the segment time-bounds catalog should keep both
// sublinear in total store size).
func BenchmarkHistoryQuery(b *testing.B) {
	cfg := store.DefaultConfig()
	cfg.SegmentMaxBytes = 64 << 10 // force a many-segment store
	cfg.SyncEvery = 1 << 20
	cfg.SyncInterval = 0
	cfg.CompactEvery = 0
	st, err := store.Open(b.TempDir(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const n = 20000
	for i := 0; i < n; i++ {
		rec, _ := store.FromResult(walResult(i))
		if err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	key := mapmatch.Key{Light: 0, Approach: lights.NorthSouth}
	lastEnd := 1800 + float64(300*(n-1))

	b.Run("RangedTail", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			recs, err := st.History(key, lastEnd-200000, lastEnd, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) == 0 {
				b.Fatal("empty tail query")
			}
		}
	})
	b.Run("AsOf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := st.AsOf(key, lastEnd/2); err != nil || !ok {
				b.Fatalf("as-of miss: ok=%v err=%v", ok, err)
			}
		}
	})
}
