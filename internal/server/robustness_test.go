package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/trace"
)

// TestOverloadShedding saturates the in-flight limiter with blocked
// requests and checks queriers are shed with 429 + Retry-After while
// /healthz stays exempt and fast.
func TestOverloadShedding(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.MaxInFlight = 2
		cfg.DebugEndpoints = true
	})
	key := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	s.shardFor(key).engine.Prime(primedResult(key))
	handler := s.Handler()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("GET", "/debug/block?ms=1500", nil)
			handler.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.inflight) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("blockers never saturated the limiter")
		}
		time.Sleep(time.Millisecond)
	}

	rec := get(t, s, "/v1/state/3/NS", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated /v1/state = %d, want 429", rec.Code)
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 || ra > 3 {
		t.Fatalf("Retry-After = %q, want a jittered value in [1, 3]", rec.Header().Get("Retry-After"))
	}
	if s.met.httpShed.Load() == 0 {
		t.Fatal("shed counter did not move")
	}

	// Health and metrics bypass the limiter — and must answer promptly
	// while the daemon is saturated.
	var worst time.Duration
	for i := 0; i < 50; i++ {
		start := time.Now()
		hrec := get(t, s, "/healthz", nil)
		if d := time.Since(start); d > worst {
			worst = d
		}
		if hrec.Code != http.StatusOK {
			t.Fatalf("saturated /healthz = %d, want 200", hrec.Code)
		}
	}
	if worst > 50*time.Millisecond {
		t.Fatalf("saturated /healthz worst latency %v, want < 50ms", worst)
	}
	if mrec := get(t, s, "/metrics", nil); mrec.Code != http.StatusOK {
		t.Fatalf("saturated /metrics = %d, want 200", mrec.Code)
	}

	wg.Wait()
	if rec := get(t, s, "/v1/state/3/NS", nil); rec.Code != http.StatusOK {
		t.Fatalf("post-saturation /v1/state = %d, want 200", rec.Code)
	}
}

// TestPanicRecovery checks a panicking handler costs one 500 and a
// counter, not the daemon.
func TestPanicRecovery(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) { cfg.DebugEndpoints = true })
	key := mapmatch.Key{Light: 1, Approach: lights.EastWest}
	s.shardFor(key).engine.Prime(primedResult(key))

	rec := get(t, s, "/debug/panic", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("/debug/panic = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "handler panic") {
		t.Fatalf("panic body %q lacks the panic marker", rec.Body.String())
	}
	if got := s.met.httpPanics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	if hrec := get(t, s, "/healthz", nil); hrec.Code != http.StatusOK {
		t.Fatalf("post-panic /healthz = %d, want 200", hrec.Code)
	}
	mrec := get(t, s, "/metrics", nil)
	if !strings.Contains(mrec.Body.String(), "lightd_http_panics_total 1") {
		t.Fatal("metrics do not report the swallowed panic")
	}
}

// TestDebugEndpointsGated checks /debug/* handlers stay unregistered by
// default.
func TestDebugEndpointsGated(t *testing.T) {
	s := newTestServer(t, nil)
	if rec := get(t, s, "/debug/panic", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/panic without the gate = %d, want 404", rec.Code)
	}
}

// TestDegradedModeHeader checks non-fresh answers carry the
// X-Taxilight-Health header.
func TestDegradedModeHeader(t *testing.T) {
	s := newTestServer(t, nil)
	key := mapmatch.Key{Light: 2, Approach: lights.NorthSouth}
	res := primedResult(key)
	s.shardFor(key).engine.Prime(res)

	// Fresh answer: no header.
	rec := get(t, s, "/v1/state/2/NS", nil)
	if rec.Code != http.StatusOK || rec.Header().Get(HealthHeader) != "" {
		t.Fatalf("fresh answer: code %d header %q", rec.Code, rec.Header().Get(HealthHeader))
	}

	// Age the estimate past staleness: the answer is still served but
	// marked.
	sh := s.shardFor(key)
	if _, err := sh.engine.Advance(res.WindowEnd + 3*s.cfg.Realtime.Interval + 1); err != nil {
		t.Fatal(err)
	}
	rec = get(t, s, "/v1/state/2/NS", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stale answer code %d, want 200", rec.Code)
	}
	if got := rec.Header().Get(HealthHeader); got != "stale" {
		t.Fatalf("stale answer header %q, want stale", got)
	}

	// The whole-city snapshot is degraded once nothing is fresh.
	srec := get(t, s, "/v1/snapshot", nil)
	if got := srec.Header().Get(HealthHeader); got != "stale" {
		t.Fatalf("degraded snapshot header %q, want stale", got)
	}
}

// TestSnapshotWorstHealthHeader checks /v1/snapshot carries the worst
// health across the returned keys: one stale approach among fresh ones
// is enough to mark the whole-city answer.
func TestSnapshotWorstHealthHeader(t *testing.T) {
	s := newTestServer(t, nil)
	old := mapmatch.Key{Light: 1, Approach: lights.NorthSouth}
	live := mapmatch.Key{Light: 2, Approach: lights.EastWest}
	stale := primedResult(old)
	stale.WindowEnd -= 4 * s.cfg.Realtime.Faults.StaleAfter
	stale.WindowStart = stale.WindowEnd - 1800
	s.shardFor(old).engine.Prime(stale)
	s.shardFor(live).engine.Prime(primedResult(live))

	rec := get(t, s, "/v1/snapshot", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/snapshot = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get(HealthHeader); got != "stale" {
		t.Fatalf("mixed snapshot header %q, want stale (worst across keys)", got)
	}
	if !strings.Contains(rec.Body.String(), `"health":"fresh"`) {
		t.Fatal("snapshot body lost its fresh approaches")
	}
}

// TestHealthzFeedTransitions walks /healthz through fresh → silent feed
// → recovered.
func TestHealthzFeedTransitions(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) { cfg.StaleFeedAfter = 2 * time.Minute })
	key := mapmatch.Key{Light: 0, Approach: lights.NorthSouth}
	s.shardFor(key).engine.Prime(primedResult(key))

	rec := get(t, s, "/healthz", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("fresh /healthz = %d %s", rec.Code, rec.Body.String())
	}

	// Pretend the last batch arrived three minutes ago on every shard.
	silent := time.Now().Add(-3 * time.Minute).UnixNano()
	for _, sh := range s.shards {
		sh.lastIngestWall.Store(silent)
	}
	rec = get(t, s, "/healthz", nil)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "feed silent") {
		t.Fatalf("silent-feed /healthz = %d %s", rec.Code, rec.Body.String())
	}

	// The feed recovers.
	for _, sh := range s.shards {
		sh.lastIngestWall.Store(time.Now().UnixNano())
	}
	rec = get(t, s, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("recovered /healthz = %d %s", rec.Code, rec.Body.String())
	}
}

// TestSyncScanStatsConcurrent folds growing per-source skip deltas from
// several goroutines and checks the daemon totals are exact.
func TestSyncScanStatsConcurrent(t *testing.T) {
	s := newTestServer(t, nil)
	const sources, steps = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < sources; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev trace.SkipStats
			for i := 1; i <= steps; i++ {
				cur := trace.SkipStats{
					Lines:   2 * i,
					Skipped: i,
					ByClass: map[string]int{"fields": i},
				}
				s.syncScanStats(&prev, cur)
			}
		}()
	}
	wg.Wait()
	if got := s.met.scanLines.Load(); got != int64(sources*2*steps) {
		t.Fatalf("scanLines = %d, want %d", got, sources*2*steps)
	}
	if fields := s.met.skipByClass["fields"].Load(); fields != int64(sources*steps) {
		t.Fatalf("skipByClass[fields] = %d, want %d", fields, sources*steps)
	}
}

// TestFlushEveryPartialBatch checks the timer flush: with a batch size
// the feed never fills, matched records must still reach the shards
// within a FlushEvery period instead of stalling in a partial batch.
func TestFlushEveryPartialBatch(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.BatchSize = 1 << 20 // never fills
	cfg.FlushEvery = 20 * time.Millisecond
	s, err := New(w.Matcher, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ingestReader(ctx, pr) }()

	// Feed a slice of records and then go quiet, keeping the pipe open:
	// only the ticker can flush the partial batches.
	n := 200
	if n > len(w.Records) {
		n = len(w.Records)
	}
	for _, r := range w.Records[:n] {
		if _, err := io.WriteString(pw, r.MarshalCSV()+"\n"); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		buffered := 0
		for _, sh := range s.shards {
			buffered += sh.engine.Health().BufferedRecords
		}
		if buffered > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("records stalled in a partial batch despite FlushEvery")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	pw.Close()
	<-done
	s.StopIngest()
}

// TestSupervisedSourcesInHealthz checks RunSources surfaces per-source
// supervision state in /healthz.
func TestSupervisedSourcesInHealthz(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.Shards = 2
	s, err := New(w.Matcher, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c io.WriteCloser) {
				defer c.Close()
				for _, r := range w.Records[:50] {
					io.WriteString(c, r.MarshalCSV()+"\n")
				}
			}(conn)
		}
	}()
	defer ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.RunSources(ctx, "feed=tcp+dial://"+ln.Addr().String()) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		sup := s.supervisor()
		if sup != nil && sup.Snapshot()[0].Records >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("supervised source never ingested")
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec := get(t, s, "/healthz", nil)
	body := rec.Body.String()
	if !strings.Contains(body, `"name":"feed"`) || !strings.Contains(body, `"kind":"tcp-dial"`) {
		t.Fatalf("/healthz lacks the supervised source: %s", body)
	}
	mrec := get(t, s, "/metrics", nil)
	for _, want := range []string{
		`lightd_source_state{source="feed",state=`,
		`lightd_source_connects_total{source="feed"}`,
		`lightd_ingest_connections_total{source="feed"}`,
		`lightd_ingest_connections_active{source="feed"}`,
		`lightd_source_backoff_seconds_count{source="feed"}`,
	} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}

	cancel()
	<-done
	s.StopIngest()
}

// TestPausedFeedHoldsStreamClock pins the clock discipline: only a
// record moves an engine's stream clock. A supervised feed delivers its
// records and then goes silent with the connection still open; several
// flush cadences later every engine still reads exactly the newest
// record time its shard ingested.
func TestPausedFeedHoldsStreamClock(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.FlushEvery = 10 * time.Millisecond
	s, err := New(w.Matcher, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	// The newest record time per shard, read back from the bytes the
	// feed sends.
	lines := matchedLines(t, w, 200)
	want := make([]float64, cfg.Shards)
	sc := trace.NewScanner(strings.NewReader(lines))
	for sc.Scan() {
		m, ok := w.Matcher.Match(sc.Record())
		if !ok {
			t.Fatal("a matched line no longer matches")
		}
		i := shardIndex(mapmatch.Key{Light: m.Light, Approach: m.Approach}, cfg.Shards)
		want[i] = max(want[i], m.T)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.WriteString(conn, lines)
		<-hold // silent, but open
	}()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.RunSources(ctx, "feed=tcp+dial://"+ln.Addr().String()) }()

	clocks := func() []float64 {
		out := make([]float64, 0, cfg.Shards)
		for _, eng := range s.Engines() {
			out = append(out, eng.Now())
		}
		return out
	}
	waitFor(t, "the feed to reach the engines", func() bool { return slices.Equal(clocks(), want) })
	silence := 5 * cfg.FlushEvery
	time.Sleep(silence)
	if got := clocks(); !slices.Equal(got, want) {
		t.Fatalf("after %v of silence the engine clocks read %v, want the newest record times %v", silence, got, want)
	}

	close(hold)
	cancel()
	<-done
	s.StopIngest()
}

// stallWriter is a scraper that stops reading: the first Write whose
// bytes contain stallOn parks until release is closed.
type stallWriter struct {
	hdr     http.Header
	stallOn string
	stalled chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *stallWriter) Header() http.Header { return w.hdr }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Write(b []byte) (int, error) {
	if strings.Contains(string(b), w.stallOn) {
		w.once.Do(func() { close(w.stalled) })
		<-w.release
	}
	return len(b), nil
}

// TestStalledScrapeBlocksNothing parks a /metrics response mid-body —
// once inside the per-class skip series, once inside the per-endpoint
// latency series — and checks that neither a querier's request nor an
// ingest loop folding skip counts waits for the scraper: /metrics is
// exempt from the in-flight limiter, so anything it holds while writing
// to the client is held for as long as the client likes.
func TestStalledScrapeBlocksNothing(t *testing.T) {
	w := testWorld(t)
	feed := matchedLines(t, w, 3) + "garbage\n" + "definitely,not,a,record\n"
	for _, stallOn := range []string{"lightd_scanner_skipped_total{", "lightd_http_request_duration_seconds_bucket{"} {
		cfg := DefaultConfig()
		cfg.Shards = 2
		s, err := New(w.Matcher, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		handler := s.Handler()
		sw := &stallWriter{hdr: http.Header{}, stallOn: stallOn, stalled: make(chan struct{}), release: make(chan struct{})}
		scraped := make(chan struct{})
		go func() {
			defer close(scraped)
			handler.ServeHTTP(sw, httptest.NewRequest("GET", "/metrics", nil))
		}()
		<-sw.stalled

		served := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/state/0/NS", nil))
			served <- rec.Code
		}()
		ingested := make(chan error, 1)
		go func() { ingested <- s.ingestReader(context.Background(), strings.NewReader(feed)) }()
		timeout := time.After(time.Second)
		for served != nil || ingested != nil {
			select {
			case <-served:
				served = nil
			case err := <-ingested:
				if err != nil {
					t.Errorf("ingest beside a stalled scrape: %v", err)
				}
				ingested = nil
			case <-timeout:
				t.Errorf("scrape stalled in %q: request done %v, ingest drained %v after 1 s",
					stallOn, served == nil, ingested == nil)
				served, ingested = nil, nil
			}
		}
		close(sw.release)
		<-scraped
		s.StopIngest()
	}
}
