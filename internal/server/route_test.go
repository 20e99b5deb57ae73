package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/navigation"
	"taxilight/internal/roadnet"
	"taxilight/internal/routesvc"
)

// routeGrid builds the Fig. 15 demo grid the route tests plan over.
func routeGrid(t testing.TB, rows, cols int) *roadnet.Network {
	t.Helper()
	cfg := navigation.DefaultFig15Config()
	cfg.Rows, cfg.Cols = rows, cols
	net, err := navigation.BuildFig15Grid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// groundTruthResults renders every (light, approach) key's ground-truth
// schedule as an engine Result — priming these makes the live
// predictions mirror the simulator exactly.
func groundTruthResults(net *roadnet.Network) []core.Result {
	var out []core.Result
	for _, nd := range net.SignalisedNodes() {
		for _, app := range []lights.Approach{lights.NorthSouth, lights.EastWest} {
			sch := nd.Light.ScheduleFor(app, 0)
			out = append(out, core.Result{
				Key:   mapmatch.Key{Light: nd.ID, Approach: app},
				Cycle: sch.Cycle, Red: sch.Red, Green: sch.Cycle - sch.Red,
				GreenToRedPhase: sch.Offset,
				WindowStart:     0, WindowEnd: 0,
				Records: 25, Quality: 1,
			})
		}
	}
	return out
}

// newRouteServer wires a routing service over a primed test server.
func newRouteServer(t testing.TB, net *roadnet.Network, prime bool) *Server {
	t.Helper()
	s := newTestServer(t, nil)
	if prime {
		if n := s.PrimeResults(groundTruthResults(net)); n == 0 {
			t.Fatal("nothing primed")
		}
	}
	rs, err := routesvc.New(net, s.RoutePredictions())
	if err != nil {
		t.Fatal(err)
	}
	s.SetRouteService(rs)
	return s
}

func decodeRoute(t testing.TB, body string) (doc struct {
	Src      int64   `json:"src"`
	Dst      int64   `json:"dst"`
	Depart   float64 `json:"depart_s"`
	Arrive   float64 `json:"arrive_s"`
	Duration float64 `json:"duration_s"`
	Distance float64 `json:"distance_m"`
	Mode     string  `json:"mode"`
	Degraded bool    `json:"degraded"`
	Expanded int     `json:"expanded_nodes"`
	Nodes    []int64 `json:"nodes"`
	Legs     []struct {
		Segment  int64   `json:"segment"`
		Enter    float64 `json:"enter_s"`
		Drive    float64 `json:"drive_s"`
		Wait     float64 `json:"wait_s"`
		Degraded bool    `json:"degraded"`
	} `json:"legs"`
}) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decode route body: %v\n%s", err, body)
	}
	return doc
}

func TestRouteEndpointServesLivePredictions(t *testing.T) {
	net := routeGrid(t, 5, 5)
	s := newRouteServer(t, net, true)
	rec := get(t, s, "/v1/route?src=0&dst=24&depart=100", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	doc := decodeRoute(t, rec.Body.String())
	if doc.Mode != "aware" || doc.Degraded {
		t.Fatalf("mode %q degraded %v", doc.Mode, doc.Degraded)
	}
	if rec.Header().Get(healthHeader) != "" {
		t.Fatalf("fresh answer carries health header %q", rec.Header().Get(healthHeader))
	}
	// Primed predictions mirror ground truth, so the served duration must
	// equal the offline exact planner's.
	ref, err := (&navigation.LightAwarePlanner{Net: net}).Plan(0, 24, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(doc.Duration-ref.Cost) > 1e-6 {
		t.Fatalf("served %v, exact planner %v", doc.Duration, ref.Cost)
	}
	if doc.Arrive-doc.Depart != doc.Duration {
		t.Fatalf("arrive %v depart %v duration %v", doc.Arrive, doc.Depart, doc.Duration)
	}
	if len(doc.Legs) == 0 || len(doc.Nodes) != len(doc.Legs)+1 {
		t.Fatalf("%d legs, %d nodes", len(doc.Legs), len(doc.Nodes))
	}
	if doc.Distance < 8000 {
		t.Fatalf("distance %v for a 5x5 corner trip", doc.Distance)
	}
}

func TestRouteEndpointDegradesWithoutEstimates(t *testing.T) {
	net := routeGrid(t, 4, 4)
	s := newRouteServer(t, net, false) // nothing primed: engines are empty
	rec := get(t, s, "/v1/route?src=0&dst=15&depart=50", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded route must be 200, got %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(healthHeader); got != "degraded" {
		t.Fatalf("health header %q, want degraded", got)
	}
	doc := decodeRoute(t, rec.Body.String())
	if !doc.Degraded {
		t.Fatal("estimate-free answer not marked degraded")
	}
	ff, err := net.ShortestPath(0, 15, func(seg *roadnet.Segment) float64 { return seg.TravelTime() })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(doc.Duration-ff.Cost) > 1e-9 {
		t.Fatalf("degraded duration %v != free-flow %v", doc.Duration, ff.Cost)
	}
}

func TestRouteEndpointModes(t *testing.T) {
	net := routeGrid(t, 4, 4)
	s := newRouteServer(t, net, true)
	aware := decodeRoute(t, get(t, s, "/v1/route?src=0&dst=15&depart=70&mode=aware", nil).Body.String())
	ff := decodeRoute(t, get(t, s, "/v1/route?src=0&dst=15&depart=70&mode=freeflow", nil).Body.String())
	if ff.Mode != "freeflow" || ff.Degraded {
		t.Fatalf("freeflow answer: %+v", ff)
	}
	if aware.Duration > ff.Duration+1e-9 {
		// freeflow duration excludes waits by construction, so the aware
		// predicted duration (with waits) may exceed it; what must hold is
		// aware realised <= freeflow realised, proven in the A/B. Here
		// just check both modes answered and differ in accounting.
		t.Logf("aware %v (with waits) vs freeflow %v (blind)", aware.Duration, ff.Duration)
	}
	if len(ff.Legs) == 0 {
		t.Fatal("freeflow route empty")
	}
	for _, leg := range ff.Legs {
		if leg.Wait != 0 {
			t.Fatalf("freeflow leg carries wait %v", leg.Wait)
		}
	}
}

func TestRouteEndpointValidation(t *testing.T) {
	net := routeGrid(t, 3, 3)
	s := newRouteServer(t, net, true)
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/route", http.StatusBadRequest},                         // missing src/dst
		{"/v1/route?src=0", http.StatusBadRequest},                   // missing dst
		{"/v1/route?src=zero&dst=8", http.StatusBadRequest},          // bad src
		{"/v1/route?src=0&dst=8&depart=x", http.StatusBadRequest},    // bad depart
		{"/v1/route?src=0&dst=8&depart=NaN", http.StatusBadRequest},  // non-finite depart
		{"/v1/route?src=4&dst=4&depart=NaN", http.StatusBadRequest},  // ... on a self trip
		{"/v1/route?src=4&dst=4&depart=-Inf", http.StatusBadRequest}, // ... negative infinity
		{"/v1/route?src=4&dst=4&depart=Inf", http.StatusBadRequest},  // ... positive infinity
		{"/v1/route?src=0&dst=8&mode=warp", http.StatusBadRequest},   // bad mode
		{"/v1/route?src=0&dst=999", http.StatusBadRequest},           // out of range
		{"/v1/route?src=-3&dst=8", http.StatusBadRequest},            // negative
		{"/v1/route?src=0&dst=8&depart=100", http.StatusOK},          // control
		{"/v1/route?src=4&dst=4&depart=0", http.StatusOK},            // self trip
	} {
		rec := get(t, s, tc.path, nil)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.path, rec.Code, tc.code, rec.Body.String())
		}
	}
}

func TestRouteEndpointWithoutService(t *testing.T) {
	s := newTestServer(t, nil)
	rec := get(t, s, "/v1/route?src=0&dst=1", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unwired routing answered %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "routing unavailable") {
		t.Fatalf("body %s", rec.Body.String())
	}
}

func TestRouteMetricsExposition(t *testing.T) {
	net := routeGrid(t, 4, 4)
	s := newRouteServer(t, net, true)
	// Two identical queries: the second must be answered from the
	// version-keyed cache.
	get(t, s, "/v1/route?src=0&dst=15&depart=100", nil)
	get(t, s, "/v1/route?src=0&dst=15&depart=100", nil)
	rec := get(t, s, "/metrics", nil)
	body := rec.Body.String()
	for _, want := range []string{
		"lightd_route_plans_total 2",
		`lightd_route_cache_total{outcome="hit"}`,
		`lightd_route_cache_total{outcome="miss"}`,
		"lightd_route_expanded_nodes_count 2",
		`lightd_http_request_duration_seconds_count{path="/v1/route"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
	// The cache must have produced real hits.
	hits := 0.0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `lightd_route_cache_total{outcome="hit"}`) {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			hits = v
		}
	}
	if hits == 0 {
		t.Fatal("no cache hits after an identical repeat query")
	}
}

func TestRouteCacheInvalidatedByPrime(t *testing.T) {
	net := routeGrid(t, 4, 4)
	s := newRouteServer(t, net, false)
	// Cold: no estimates, the answer is degraded and the misses are
	// cached (negative entries).
	first := decodeRoute(t, get(t, s, "/v1/route?src=0&dst=15&depart=40", nil).Body.String())
	if !first.Degraded {
		t.Fatal("cold answer not degraded")
	}
	// Prime ground truth: the round epoch moves, the cache drops its
	// negative entries, and the same query now routes on predictions.
	if n := s.PrimeResults(groundTruthResults(net)); n == 0 {
		t.Fatal("nothing primed")
	}
	second := decodeRoute(t, get(t, s, "/v1/route?src=0&dst=15&depart=40", nil).Body.String())
	if second.Degraded {
		t.Fatal("primed answer still degraded: cache not invalidated by PrimeResults")
	}
	ref, err := (&navigation.LightAwarePlanner{Net: net}).Plan(0, 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(second.Duration-ref.Cost) > 1e-6 {
		t.Fatalf("post-prime duration %v, exact %v", second.Duration, ref.Cost)
	}
}

func TestRouteConcurrentQueriesDuringPriming(t *testing.T) {
	net := routeGrid(t, 5, 5)
	s := newRouteServer(t, net, false)
	results := groundTruthResults(net)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.PrimeResults(results[i%len(results) : i%len(results)+1])
			}
		}
	}()
	var qwg sync.WaitGroup
	for g := 0; g < 6; g++ {
		qwg.Add(1)
		go func(seed int) {
			defer qwg.Done()
			for i := 0; i < 100; i++ {
				src := (seed + i) % 25
				dst := (seed*11 + i*3) % 25
				if src == dst {
					continue
				}
				rec := get(t, s, "/v1/route?src="+itoa(src)+"&dst="+itoa(dst)+"&depart="+itoa(i), nil)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	qwg.Wait()
	close(stop)
	wg.Wait()
}

func itoa(v int) string { return strconv.Itoa(v) }

// TestRouteServeAllocs holds GET /v1/route for a primed grid, beside
// TestStateServeAllocs: the query parse, the plan (search, leg replay,
// cache hits) and the JSON document, whose node and leg lists are sized
// once from the plan, not grown a leg at a time.
func TestRouteServeAllocs(t *testing.T) {
	s := newRouteServer(t, routeGrid(t, 5, 5), true)
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/route?src=0&dst=24&depart=100", nil)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		clear(w.h)
		w.code = http.StatusOK
		h.ServeHTTP(w, req)
	}
	serve() // fills the route cache
	if w.code != http.StatusOK || w.h.Get(healthHeader) != "" {
		t.Fatalf("status %d, health %q", w.code, w.h.Get(healthHeader))
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	if got := testing.AllocsPerRun(200, serve); got > 11 {
		t.Errorf("GET /v1/route allocates %.0f objects per request, budget 11", got)
	}
}
