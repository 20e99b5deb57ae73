package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/pubsub"
	"taxilight/internal/store"
)

// wantState is the one /v1/state body: pubsub.AppendState plus the
// newline every JSON answer ends with.
func wantState(k mapmatch.Key, t float64, est core.Estimate, health string) string {
	return string(pubsub.AppendState(nil, k, t, est, health, 0, false)) + "\n"
}

// checkStateAnswer asserts a 200 JSON state answer with the given body
// and health header.
func checkStateAnswer(t *testing.T, what string, code int, hdr http.Header, body, want, health string) {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("%s: status %d body %s", what, code, body)
	}
	if body != want {
		t.Fatalf("%s body\n got %s\nwant %s", what, body, want)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q", what, ct)
	}
	if got := hdr.Get(HealthHeader); got != health {
		t.Fatalf("%s: health header %q, want %q", what, got, health)
	}
}

// TestStateAnswersShareOneWriter pins the single /v1/state writer: the
// live, health-only and as-of answers are each byte for byte
// pubsub.AppendState for the same key, time, estimate and health.
func TestStateAnswersShareOneWriter(t *testing.T) {
	s, st := newStoreServer(t, t.TempDir())
	defer st.Close()
	live := mapmatch.Key{Light: 1, Approach: lights.NorthSouth}
	bare := mapmatch.Key{Light: 2, Approach: lights.EastWest}
	s.PrimeResults([]core.Result{primedResult(live)})

	// A time whose encoding/json and strconv 'g' spellings differ
	// (1.2345675e+06 against 1234567.5): the answer must be AppendState's.
	const at = 1234567.5
	est, _ := s.EstimateFor(live)
	rec := get(t, s, "/v1/state/1/NS?t=1234567.5", nil)
	checkStateAnswer(t, "live", rec.Code, rec.Header(), rec.Body.String(), wantState(live, at, est, "fresh"), "")

	// Health-only: known to the failure ledger, never estimated (the
	// set-up of TestStateQuarantined).
	s2 := newTestServer(t, func(c *Config) { c.Realtime.Faults.QuarantineAfter = 1 })
	s2.PrimeResults([]core.Result{primedResult(live)})
	for _, key := range []mapmatch.Key{live, bare} {
		eng := s2.shardFor(key).engine
		eng.Ingest(sparseMatched(key, 3, 100))
		if _, err := eng.Advance(eng.Now() + 301); err != nil {
			t.Fatal(err)
		}
	}
	rec = get(t, s2, "/v1/state/2/EW?t=1234567.5", nil)
	checkStateAnswer(t, "health-only", rec.Code, rec.Header(), rec.Body.String(),
		wantState(bare, at, core.Estimate{}, "quarantined"), "quarantined")
	if !strings.Contains(rec.Body.String(), `"state":"unknown"`) || strings.Contains(rec.Body.String(), `"estimate"`) {
		t.Fatalf("health-only answer carries a schedule: %s", rec.Body.String())
	}

	// As-of: the persisted estimate evaluated at the asked time.
	res := primedResult(live)
	res.WindowEnd = 1000
	r, _ := store.FromResult(res)
	if err := st.Append(r); err != nil {
		t.Fatal(err)
	}
	rec = get(t, s, "/v1/state/1/NS?asof=1234567.5", nil)
	asof := core.Estimate{Result: r.Result(), Age: at - r.WindowEnd}
	checkStateAnswer(t, "as-of", rec.Code, rec.Header(), rec.Body.String(), wantState(live, at, asof, "historical"), "historical")
}

// TestStreamTimeParamsRefuseNonFinite holds every stream-time query
// parameter to one parser: NaN and the infinities are a 400 with an
// error body, never an invented answer or an empty 200.
func TestStreamTimeParamsRefuseNonFinite(t *testing.T) {
	s, st := newStoreServer(t, t.TempDir())
	defer st.Close()
	k := mapmatch.Key{Light: 3, Approach: lights.NorthSouth}
	s.PrimeResults([]core.Result{primedResult(k)})
	rec, _ := store.FromResult(primedResult(k))
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	rs := newRouteServer(t, routeGrid(t, 3, 3), true)

	for _, tc := range []struct {
		srv  *Server
		path string // %s takes the value
		ok   int    // status for a finite value
	}{
		{s, "/v1/state/3/NS?t=%s", http.StatusOK},
		{s, "/v1/state/3/NS?asof=%s", http.StatusOK},
		{s, "/v1/history/3/NS?from=%s", http.StatusOK},
		{s, "/v1/history/3/NS?from=0&to=%s", http.StatusOK},
		{rs, "/v1/route?src=0&dst=8&depart=%s", http.StatusOK},
	} {
		if got := get(t, tc.srv, fmt.Sprintf(tc.path, "2000"), nil); got.Code != tc.ok {
			t.Errorf("%s: status %d, want %d (%s)", fmt.Sprintf(tc.path, "2000"), got.Code, tc.ok, got.Body.String())
		}
		for _, v := range []string{"NaN", "nan", "Inf", "%2BInf", "-Inf", "infinity", "1e999", "x"} {
			path := fmt.Sprintf(tc.path, v)
			got := get(t, tc.srv, path, nil)
			if got.Code != http.StatusBadRequest || !strings.HasPrefix(got.Body.String(), `{"error":"bad `) {
				t.Errorf("%s: status %d body %q, want 400 with an error body", path, got.Code, got.Body.String())
			}
		}
	}
}

// FuzzParseWatchKeys holds the /v1/watch key parser: it never panics,
// empty input is an error, and an accepted list has no duplicate and
// only keys that re-render as <light>:<NS|EW> and parse back to
// themselves.
func FuzzParseWatchKeys(f *testing.F) {
	for _, seed := range []string{"", "7:NS", "7:NS,7:EW,12:ns", " 3:ew , 3:EW", "1:XX", "a:NS", ":", ",", "9223372036854775807:EW"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		keys, err := ParseWatchKeys(q)
		if q == "" && err == nil {
			t.Fatal("empty keys parameter accepted")
		}
		if err != nil {
			return
		}
		seen := make(map[mapmatch.Key]bool, len(keys))
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("%q: duplicate key %v in %v", q, k, keys)
			}
			seen[k] = true
			if k.Approach != lights.NorthSouth && k.Approach != lights.EastWest {
				t.Fatalf("%q: key %v has no wire approach", q, k)
			}
			text := fmt.Sprintf("%d:%s", k.Light, k.Approach)
			back, err := ParseWatchKeys(text)
			if err != nil || len(back) != 1 || back[0] != k {
				t.Fatalf("%q: key %v re-renders as %q, which parses to %v, %v", q, k, text, back, err)
			}
		}
	})
}
