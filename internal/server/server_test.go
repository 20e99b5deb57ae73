package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/experiments"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/trace"
)

// testWorld builds a small deterministic simulated city whose records
// the ingest tests replay.
func testWorld(t testing.TB) *experiments.World {
	t.Helper()
	cfg := experiments.DefaultWorldConfig()
	cfg.Rows, cfg.Cols = 2, 2
	cfg.Taxis = 60
	cfg.Horizon = 600
	w, err := experiments.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// newTestServer builds a 2-shard server with no matcher (handler tests
// feed the engines directly).
func newTestServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = 2
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get performs one request against the server's handler.
func get(t testing.TB, s *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// primedResult is the reference schedule used across handler tests:
// cycle 100 s, red [0, 40) anchored at t=0, green [40, 100).
func primedResult(key mapmatch.Key) core.Result {
	return core.Result{
		Key:   key,
		Cycle: 100, Red: 40, Green: 60,
		GreenToRedPhase: 0, RedToGreenPhase: 40,
		WindowStart: 0, WindowEnd: 1800,
		Records: 120, Quality: 0.5,
	}
}

type stateBody struct {
	Light     int64    `json:"light"`
	Approach  string   `json:"approach"`
	T         float64  `json:"t_s"`
	State     string   `json:"state"`
	Countdown *float64 `json:"countdown_s"`
	NextState string   `json:"next_state"`
	Health    string   `json:"health"`
	Estimate  *struct {
		Cycle float64 `json:"cycle_s"`
		Red   float64 `json:"red_s"`
	} `json:"estimate"`
}

func decodeState(t *testing.T, rec *httptest.ResponseRecorder) stateBody {
	t.Helper()
	var out stateBody
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad state body %q: %v", rec.Body.String(), err)
	}
	return out
}

// TestStateCountdown pins the countdown math of /v1/state, including
// both sides of the red→green phase boundary and negative-phase
// wrapping.
func TestStateCountdown(t *testing.T) {
	s := newTestServer(t, nil)
	key := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(key)})

	cases := []struct {
		t         float64
		state     string
		countdown float64
		next      string
	}{
		{t: 10, state: "red", countdown: 30, next: "green"},
		{t: 39.5, state: "red", countdown: 0.5, next: "green"}, // just before the boundary
		{t: 40, state: "green", countdown: 60, next: "red"},    // exactly at green onset
		{t: 99.5, state: "green", countdown: 0.5, next: "red"}, // just before wrap
		{t: 100, state: "red", countdown: 40, next: "green"},   // next cycle
		{t: -10, state: "green", countdown: 10, next: "red"},   // negative time wraps
		{t: 2040, state: "green", countdown: 60, next: "red"},  // far past WindowEnd
	}
	for _, tc := range cases {
		rec := get(t, s, fmt.Sprintf("/v1/state/3/NS?t=%g", tc.t), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("t=%g: status %d body %s", tc.t, rec.Code, rec.Body.String())
		}
		b := decodeState(t, rec)
		if b.State != tc.state || b.NextState != tc.next {
			t.Errorf("t=%g: state %s→%s, want %s→%s", tc.t, b.State, b.NextState, tc.state, tc.next)
		}
		if b.Countdown == nil || math.Abs(*b.Countdown-tc.countdown) > 1e-9 {
			t.Errorf("t=%g: countdown %v, want %g", tc.t, b.Countdown, tc.countdown)
		}
		if b.Health != "fresh" {
			t.Errorf("t=%g: health %s, want fresh", tc.t, b.Health)
		}
		if b.Estimate == nil || b.Estimate.Cycle != 100 || b.Estimate.Red != 40 {
			t.Errorf("t=%g: estimate %+v, want cycle 100 red 40", tc.t, b.Estimate)
		}
	}
}

// TestStateErrors pins the 404/400 paths.
func TestStateErrors(t *testing.T) {
	s := newTestServer(t, nil)
	if rec := get(t, s, "/v1/state/7/NS", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown key: status %d, want 404", rec.Code)
	}
	if rec := get(t, s, "/v1/state/7/XX", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad approach: status %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/v1/state/abc/NS", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad light: status %d, want 400", rec.Code)
	}
	key := mapmatch.Key{Light: 7, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(key)})
	if rec := get(t, s, "/v1/state/7/NS?t=notanumber", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad t: status %d, want 400", rec.Code)
	}
}

// sparseMatched fabricates too-few matched records for one approach —
// enough to enter an estimation window, never enough to identify a
// cycle, so every pass fails and feeds the quarantine ledger.
func sparseMatched(key mapmatch.Key, n int, t0 float64) []mapmatch.Matched {
	out := make([]mapmatch.Matched, n)
	for i := range out {
		out[i] = mapmatch.Matched{
			Light: key.Light, Approach: key.Approach,
			T:     t0 + float64(i)*10,
			Plate: fmt.Sprintf("B%d", i), SpeedKMH: 10,
		}
	}
	return out
}

// TestStateQuarantined drives an approach into quarantine through the
// public engine API and checks /v1/state reports the health state — both
// for an approach still serving its last good estimate and for one that
// never produced an estimate at all.
func TestStateQuarantined(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Realtime.Faults.QuarantineAfter = 1
	})
	primed := mapmatch.Key{Light: 1, Approach: lights.NorthSouth}
	bare := mapmatch.Key{Light: 2, Approach: lights.EastWest}
	s.PrimeResults([]core.Result{primedResult(primed)})

	for _, key := range []mapmatch.Key{primed, bare} {
		eng := s.shardFor(key).engine
		eng.Ingest(sparseMatched(key, 3, 100))
		if _, err := eng.Advance(eng.Now() + 301); err != nil {
			t.Fatal(err)
		}
	}

	rec := get(t, s, "/v1/state/1/NS", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("primed: status %d body %s", rec.Code, rec.Body.String())
	}
	b := decodeState(t, rec)
	if b.Health != "quarantined" {
		t.Errorf("primed: health %s, want quarantined", b.Health)
	}
	if b.State != "red" && b.State != "green" {
		t.Errorf("primed: state %s, want a served answer from the last good estimate", b.State)
	}
	if b.Estimate == nil {
		t.Error("primed: estimate missing; quarantine must not unpublish the last good estimate")
	}

	rec = get(t, s, "/v1/state/2/EW", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("bare: status %d body %s", rec.Code, rec.Body.String())
	}
	b = decodeState(t, rec)
	if b.Health != "quarantined" || b.State != "unknown" || b.Countdown != nil {
		t.Errorf("bare: got state=%s health=%s countdown=%v, want unknown/quarantined/nil", b.State, b.Health, b.Countdown)
	}
}

type snapshotBody struct {
	Now        float64 `json:"now_s"`
	Approaches []struct {
		Light    int64   `json:"light"`
		Approach string  `json:"approach"`
		Cycle    float64 `json:"cycle_s"`
		Health   string  `json:"health"`
	} `json:"approaches"`
}

// TestSnapshotETag pins the revalidation contract: stable tag while no
// engine publishes, 304 on If-None-Match (including weak and wildcard
// forms), fresh tag and 200 as soon as any shard's version moves.
func TestSnapshotETag(t *testing.T) {
	s := newTestServer(t, nil)
	k1 := mapmatch.Key{Light: 0, Approach: lights.NorthSouth}
	k2 := mapmatch.Key{Light: 5, Approach: lights.EastWest}
	s.PrimeResults([]core.Result{primedResult(k1)})
	s.PrimeResults([]core.Result{primedResult(k2)})

	rec := get(t, s, "/v1/snapshot", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on snapshot response")
	}
	var body snapshotBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Approaches) != 2 {
		t.Fatalf("snapshot has %d approaches, want 2", len(body.Approaches))
	}

	// Revalidation: exact, weak and wildcard matches all 304.
	for _, match := range []string{etag, "W/" + etag, `"zzz", ` + etag, "*"} {
		rec = get(t, s, "/v1/snapshot", map[string]string{"If-None-Match": match})
		if rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", match, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("If-None-Match %q: 304 carried a body", match)
		}
	}
	// A non-matching tag still gets the full body.
	if rec = get(t, s, "/v1/snapshot", map[string]string{"If-None-Match": `"stale"`}); rec.Code != http.StatusOK {
		t.Errorf("mismatched tag: status %d, want 200", rec.Code)
	}

	// Publishing anywhere invalidates the tag.
	k3 := mapmatch.Key{Light: 9, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(k3)})
	rec = get(t, s, "/v1/snapshot", map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusOK {
		t.Fatalf("after publish: status %d, want 200", rec.Code)
	}
	if newTag := rec.Header().Get("ETag"); newTag == etag {
		t.Error("ETag unchanged after a shard published")
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Approaches) != 3 {
		t.Errorf("snapshot has %d approaches after publish, want 3", len(body.Approaches))
	}
}

// TestHealthz pins the serving-condition contract: 503 with no fresh
// estimate, 200 with one, 503 again once everything ages past three
// re-estimation intervals.
func TestHealthz(t *testing.T) {
	s := newTestServer(t, nil)
	if rec := get(t, s, "/healthz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("empty server: status %d, want 503", rec.Code)
	}

	key := mapmatch.Key{Light: 4, Approach: lights.NorthSouth}
	res := primedResult(key)
	res.WindowEnd = 0 // age 0 against the engine's zero clock
	s.PrimeResults([]core.Result{res})
	if rec := get(t, s, "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("fresh estimate: status %d body %s, want 200", rec.Code, rec.Body.String())
	}

	// Age the only estimate past three intervals (900 s at the default
	// cadence).
	if _, err := s.shardFor(key).engine.Advance(1000); err != nil {
		t.Fatal(err)
	}
	rec := get(t, s, "/healthz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("stale estimate: status %d, want 503", rec.Code)
	}
	var doc healthzJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Stale != 1 || doc.Fresh != 0 {
		t.Errorf("health counts fresh=%d stale=%d, want 0/1", doc.Fresh, doc.Stale)
	}
}

// TestMetricsExposition checks the Prometheus endpoint carries the full
// series matrix — including pre-registered zero-valued skip classes —
// and that request latencies accumulate.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, nil)
	key := mapmatch.Key{Light: 1, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(key)})
	get(t, s, "/v1/state/1/NS", nil)
	get(t, s, "/v1/snapshot", nil)

	rec := get(t, s, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"lightd_ingest_records_total 0",
		`lightd_scanner_skipped_total{class="coord"} 0`,
		`lightd_scanner_skipped_total{class="fields"} 0`,
		`lightd_approaches{health="fresh"} 1`,
		`lightd_http_request_duration_seconds_count{path="/v1/state"} 1`,
		`lightd_http_request_duration_seconds_count{path="/v1/snapshot"} 1`,
		"lightd_estimate_age_seconds_count 1",
		"lightd_scheduling_changes_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestIngestSharded runs the dispatch path end to end against a real
// matched world: records are scanned leniently (with injected malformed
// lines), map-matched, sharded, drained, and surfaced in /metrics and
// /healthz.
func TestIngestSharded(t *testing.T) {
	w := testWorld(t)
	cfg := DefaultConfig()
	cfg.Shards = 3
	s, err := New(w.Matcher, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Serialise the world's records with a malformed line every 50th —
	// well under the 5 % budget.
	var sb strings.Builder
	bad := 0
	for i, r := range w.Records {
		if i%50 == 0 {
			sb.WriteString("definitely,not,a,record\n")
			bad++
		}
		sb.WriteString(r.MarshalCSV())
		sb.WriteByte('\n')
	}

	s.Start()
	if err := s.ingestReader(context.Background(), strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	s.StopIngest()

	if got := s.met.ingestRecords.Load(); got != int64(len(w.Records)) {
		t.Errorf("ingested %d records, want %d", got, len(w.Records))
	}
	if s.met.ingestMatched.Load() == 0 {
		t.Error("no records matched")
	}
	text := get(t, s, "/metrics", nil).Body.String()
	want := fmt.Sprintf(`lightd_scanner_skipped_total{class="fields"} %d`, bad)
	if !strings.Contains(text, want) {
		t.Errorf("metrics missing %q", want)
	}
	// Every round observes each of its four stages once.
	if rounds := s.met.estimateRounds.Load(); rounds == 0 {
		t.Error("no estimation round ran")
	} else {
		for _, stage := range roundStages {
			want := fmt.Sprintf(`lightd_estimate_stage_seconds_count{stage=%q} %d`, stage, rounds)
			if !strings.Contains(text, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
	var doc healthzJSON
	if err := json.Unmarshal(get(t, s, "/healthz", nil).Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Buffered == 0 {
		t.Error("no records buffered in any shard after ingest")
	}
	// Every matched record must land on the shard that owns its key:
	// re-deriving the shard for each snapshot key must find its estimate
	// (or at least its buffered data) on that shard only.
	total := 0
	for _, eng := range s.Engines() {
		total += eng.Health().BufferedRecords
	}
	if total != doc.Buffered {
		t.Errorf("shard buffer accounting mismatch: %d vs %d", total, doc.Buffered)
	}
}

// discardWriter is a ResponseWriter that keeps only the status code and
// reuses its header map, so what an AllocsPerRun over ServeHTTP counts is
// the mux and the handler, not the recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestStateServeAllocs holds GET /v1/state/{light}/{approach} for a served
// key to its allocation floor: the mux's wildcard match (2) and the
// recovery wrapper's tracking writer (1). A request without a query
// string must not pay for parsing one, and the Content-Type value is
// shared, not built per response (ledger row server.state_allocs_per_op).
func TestStateServeAllocs(t *testing.T) {
	s := newTestServer(t, nil)
	key := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(key)})
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/state/3/NS", nil)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		clear(w.h)
		w.code = http.StatusOK
		h.ServeHTTP(w, req)
	}
	serve()
	if w.code != http.StatusOK || w.h.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q", w.code, w.h.Get("Content-Type"))
	}
	if got := testing.AllocsPerRun(200, serve); got > 3 {
		t.Errorf("GET /v1/state allocates %.0f objects per request, budget 3", got)
	}
}

// ingestReader scans one raw feed leniently and ingests it without
// supervision or dedup.
func (s *Server) ingestReader(ctx context.Context, r io.Reader) error {
	return s.ingestScanner(ctx, trace.NewLenientScanner(r, s.cfg.Lenient), nil)
}

// TestConfigValidate: a nonsense setting is refused, not rewritten. A
// negative HTTP timeout would otherwise run the listener with no timeout
// at all; zero is http.Server's "none" and stays accepted.
func TestConfigValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"no HTTP timeouts", func(c *Config) { c.ReadTimeout, c.WriteTimeout = 0, 0 }, true},
		{"negative read timeout", func(c *Config) { c.ReadTimeout = -time.Second }, false},
		{"negative write timeout", func(c *Config) { c.WriteTimeout = -time.Second }, false},
		{"negative shutdown grace", func(c *Config) { c.ShutdownGrace = -time.Second }, false},
		{"negative watch write timeout", func(c *Config) { c.WatchWriteTimeout = -time.Second }, false},
	} {
		cfg := DefaultConfig()
		c.mut(&cfg)
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
		if _, err := New(nil, cfg); (err == nil) != c.ok {
			t.Errorf("%s: New = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
