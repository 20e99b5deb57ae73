package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id, event string
	data      map[string]any
}

// sseReader incrementally parses an SSE stream.
type sseReader struct {
	t  *testing.T
	sc *bufio.Scanner
}

func newSSEReader(t *testing.T, body *bufio.Scanner) *sseReader {
	return &sseReader{t: t, sc: body}
}

// next reads one event (skipping heartbeat comments), failing the test
// if the stream ends first.
func (r *sseReader) next() sseEvent {
	r.t.Helper()
	var ev sseEvent
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case line == "":
			if ev.data != nil {
				return ev
			}
			ev = sseEvent{} // comment-only frame (heartbeat)
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.data); err != nil {
				r.t.Fatalf("bad event data: %v\n%s", err, line)
			}
		}
	}
	r.t.Fatalf("stream ended before an event arrived (scan err: %v)", r.sc.Err())
	return ev
}

// openWatch connects a streaming client to ts and returns the reader
// plus a cancel that tears the connection down.
func openWatch(t *testing.T, ts *httptest.Server, query string, lastEventID string) (*sseReader, *http.Response, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/watch?"+query, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("watch status = %d", resp.StatusCode)
	}
	return newSSEReader(t, bufio.NewScanner(resp.Body)), resp, func() {
		cancel()
		resp.Body.Close()
	}
}

func TestWatchStreamDeltas(t *testing.T) {
	s := newTestServer(t, nil)
	keyNS := mapmatch.Key{Light: 7, Approach: lights.NorthSouth}
	keyEW := mapmatch.Key{Light: 8, Approach: lights.EastWest}
	s.PrimeResults([]core.Result{primedResult(keyNS)})

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rd, resp, done := openWatch(t, ts, "keys=7:NS", "")
	defer done()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Catch-up: the primed estimate arrives before any new round.
	ev := rd.next()
	if ev.event != "estimate" || ev.id == "" {
		t.Fatalf("catch-up event malformed: %+v", ev)
	}
	if ev.data["light"] != float64(7) || ev.data["approach"] != "NS" {
		t.Fatalf("catch-up for wrong key: %v", ev.data)
	}
	if _, ok := ev.data["version"]; !ok {
		t.Fatalf("event missing version: %v", ev.data)
	}
	if est, ok := ev.data["estimate"].(map[string]any); !ok || est["cycle_s"] != float64(100) {
		t.Fatalf("event missing estimate: %v", ev.data)
	}

	// Delta semantics: publishing an unwatched key must produce nothing;
	// the next event the subscriber sees is the watched key's update.
	s.PrimeResults([]core.Result{primedResult(keyEW)})
	updated := primedResult(keyNS)
	updated.Cycle, updated.Red, updated.Green = 90, 30, 60
	updated.WindowEnd = 2000
	s.PrimeResults([]core.Result{updated})

	ev = rd.next()
	if ev.data["light"] != float64(7) || ev.data["approach"] != "NS" {
		t.Fatalf("delta for wrong key (unwatched key leaked?): %v", ev.data)
	}
	if est, ok := ev.data["estimate"].(map[string]any); !ok || est["cycle_s"] != float64(90) {
		t.Fatalf("delta does not carry the updated estimate: %v", ev.data)
	}
	if s.WatchSubscribers() != 1 {
		t.Fatalf("subscriber census = %d, want 1", s.WatchSubscribers())
	}
	// No test waits out a keep-alive or an idle connection, so the two
	// fixed cadences are held here.
	if watchHeartbeat != 15*time.Second || idleTimeout != 60*time.Second {
		t.Fatalf("watch heartbeat %v, listener idle timeout %v; want 15s and 1m0s", watchHeartbeat, idleTimeout)
	}
}

func TestWatchResume(t *testing.T) {
	s := newTestServer(t, nil)
	key := mapmatch.Key{Light: 7, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(key)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First connection: learn the current event id from catch-up.
	rd, _, done := openWatch(t, ts, "keys=7:NS", "")
	id := rd.next().id
	done()

	// Resume with the current id: no catch-up; the first event arrives
	// only after something actually changes.
	rd2, _, done2 := openWatch(t, ts, "keys=7:NS", id)
	defer done2()
	updated := primedResult(key)
	updated.Cycle = 80
	s.PrimeResults([]core.Result{updated})
	ev := rd2.next()
	if est := ev.data["estimate"].(map[string]any); est["cycle_s"] != float64(80) {
		t.Fatalf("resumed stream's first event is not the new delta: %v", ev.data)
	}
	if ev.id == id {
		t.Fatal("event id did not move after a publish")
	}

	// Resume with a stale id: full catch-up (safe over-delivery).
	rd3, _, done3 := openWatch(t, ts, "keys=7:NS", "stale-id")
	defer done3()
	if ev := rd3.next(); ev.data["light"] != float64(7) {
		t.Fatalf("stale resume did not catch up: %v", ev.data)
	}
}

func TestWatchBadRequests(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxWatchKeys = 2 })
	for _, tc := range []struct{ path, wantErr string }{
		{"/v1/watch", "missing keys"},
		{"/v1/watch?keys=7", "bad key"},
		{"/v1/watch?keys=x:NS", "bad light id"},
		{"/v1/watch?keys=7:UP", "bad approach"},
		{"/v1/watch?keys=1:NS,2:NS,3:NS", "too many keys"},
	} {
		rec := get(t, s, tc.path, nil)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), tc.wantErr) {
			t.Fatalf("%s: body %q does not mention %q", tc.path, rec.Body.String(), tc.wantErr)
		}
	}
}

func TestWatchShedsAtSubscriberCap(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxSubscribers = 1 })
	key := mapmatch.Key{Light: 7, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(key)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rd, _, done := openWatch(t, ts, "keys=7:NS", "")
	defer done()
	rd.next() // stream is live, the slot is held

	resp, err := ts.Client().Get(ts.URL + "/v1/watch?keys=7:EW")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second subscription status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	met := get(t, s, "/metrics", nil).Body.String()
	if !strings.Contains(met, "lightd_watch_shed_total 1") {
		t.Fatalf("shed not counted:\n%s", grepLines(met, "watch_shed"))
	}
	if !strings.Contains(met, "lightd_watch_subscribers 1") {
		t.Fatalf("subscriber gauge wrong:\n%s", grepLines(met, "watch_subscribers"))
	}
}

// grepLines returns the lines of s containing substr (test-failure
// context).
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestWatchSlowSubscriberEvicted is the serving-layer half of the
// slow-client guarantee: a connected client that stops reading is
// evicted at the write deadline, the eviction is counted, and rounds
// keep publishing at full speed the whole time (never blocking on the
// stalled socket). Run under -race in CI.
func TestWatchSlowSubscriberEvicted(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.WatchWriteTimeout = 300 * time.Millisecond
		// Deep queue so the write deadline (not queue overflow) is what
		// cuts the client loose — this test is about the serve-side path.
		c.WatchQueue = 8192
	})
	key := mapmatch.Key{Light: 7, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(key)})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{
		Handler: s.Handler(),
		// Shrink the server-side socket buffer so the stalled client's
		// TCP window fills after a few KB and the handler's Write
		// actually blocks into its deadline.
		ConnContext: func(ctx context.Context, c net.Conn) context.Context {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetWriteBuffer(4 << 10)
			}
			return ctx
		},
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10)
	}
	fmt.Fprintf(conn, "GET /v1/watch?keys=7:NS HTTP/1.1\r\nHost: x\r\n\r\n")
	// The client never reads again — it is a stalled subscriber.

	// Wait for the subscription to register, then keep publishing rounds.
	// Each publish must return promptly whether or not the client drains.
	deadline := time.Now().Add(15 * time.Second)
	for s.WatchSubscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	res := primedResult(key)
	for s.hub.Snapshot().EvictedDeadline == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled client never evicted at the write deadline (snapshot %+v)", s.hub.Snapshot())
		}
		res.WindowEnd += 10
		start := time.Now()
		s.PrimeResults([]core.Result{res})
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("publish blocked %v on a stalled subscriber", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
	met := get(t, s, "/metrics", nil).Body.String()
	if !strings.Contains(met, `lightd_watch_evictions_total{reason="deadline"} 1`) {
		t.Fatalf("deadline eviction not on /metrics:\n%s", grepLines(met, "evictions"))
	}
}

func TestParseWatchKeysDedup(t *testing.T) {
	keys, err := ParseWatchKeys("7:NS,7:ns,8:EW")
	if err != nil {
		t.Fatal(err)
	}
	want := []mapmatch.Key{
		{Light: roadnet.NodeID(7), Approach: lights.NorthSouth},
		{Light: roadnet.NodeID(8), Approach: lights.EastWest},
	}
	if len(keys) != len(want) || keys[0] != want[0] || keys[1] != want[1] {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
}
