package routesvc

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"taxilight/internal/core"
	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/metrics"
	"taxilight/internal/navigation"
	"taxilight/internal/roadnet"
)

// truthSource answers predictions straight from the network's ground
// truth schedules — the service's A* must then agree exactly with the
// offline light-aware planner, navigation.BelievedPlanner under
// navigation.TruthSource.
type truthSource struct {
	net   *roadnet.Network
	epoch atomic.Uint64
	calls atomic.Int64
	now   float64
	// deny answers "no estimate" for these lights, forcing free-flow
	// fallback.
	mu   sync.Mutex
	deny map[roadnet.NodeID]bool
	// health, when non-empty, overrides the returned health label.
	health string
}

func (ts *truthSource) Predict(k mapmatch.Key) (core.Estimate, string, bool) {
	ts.calls.Add(1)
	ts.mu.Lock()
	denied := ts.deny[k.Light]
	health := ts.health
	ts.mu.Unlock()
	if denied {
		return core.Estimate{}, "", false
	}
	nd := ts.net.Node(k.Light)
	if nd == nil || nd.Light == nil {
		return core.Estimate{}, "", false
	}
	sch := nd.Light.ScheduleFor(k.Approach, 0)
	res := core.Result{
		Key:   k,
		Cycle: sch.Cycle, Red: sch.Red, Green: sch.Cycle - sch.Red,
		GreenToRedPhase: sch.Offset,
		WindowStart:     0, WindowEnd: 0,
		Records: 10, Quality: 1,
	}
	if health == "" {
		health = "fresh"
	}
	return core.Estimate{Result: res, Health: core.Fresh}, health, true
}

func (ts *truthSource) Epoch() uint64 { return ts.epoch.Load() }
func (ts *truthSource) Now() float64  { return ts.now }

func grid(t testing.TB, rows, cols int) *roadnet.Network {
	t.Helper()
	cfg := navigation.DefaultFig15Config()
	cfg.Rows, cfg.Cols = rows, cols
	net, err := navigation.BuildFig15Grid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func service(t testing.TB, net *roadnet.Network) (*Service, *truthSource) {
	t.Helper()
	src := &truthSource{net: net, now: 1000}
	svc, err := New(net, src)
	if err != nil {
		t.Fatal(err)
	}
	return svc, src
}

func TestPlanMatchesLightAwarePlanner(t *testing.T) {
	net := grid(t, 6, 6)
	svc, _ := service(t, net)
	ref := &navigation.BelievedPlanner{Net: net, Source: navigation.TruthSource{Net: net}}
	for depart := 0.0; depart < 3000; depart += 217 {
		for _, od := range [][2]roadnet.NodeID{{0, 35}, {5, 30}, {0, 7}, {14, 21}} {
			got, err := svc.Plan(od[0], od[1], depart, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Plan(od[0], od[1], depart)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Route.Cost-want.Cost) > 1e-6 {
				t.Fatalf("depart %v %v: A* %v vs reference Dijkstra %v",
					depart, od, got.Route.Cost, want.Cost)
			}
			if got.Degraded {
				t.Fatalf("fresh predictions answered Degraded")
			}
			// The A* cost must equal the route evaluated against ground
			// truth (the source mirrors it).
			if ev := navigation.RouteTime(net, got.Route, depart); math.Abs(ev-got.Route.Cost) > 1e-6 {
				t.Fatalf("planned %v, evaluated %v", got.Route.Cost, ev)
			}
			if got.Arrive-got.Depart != got.Route.Cost {
				t.Fatalf("arrive %v - depart %v != cost %v", got.Arrive, got.Depart, got.Route.Cost)
			}
			if got.Expanded <= 0 || got.Expanded > net.NumNodes() {
				t.Fatalf("expanded = %d", got.Expanded)
			}
		}
	}
}

func TestPlanLegsTimeline(t *testing.T) {
	net := grid(t, 5, 5)
	svc, _ := service(t, net)
	res, err := svc.Plan(0, 24, 500, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Legs) != len(res.Route.Segments) {
		t.Fatalf("%d legs for %d segments", len(res.Legs), len(res.Route.Segments))
	}
	t0 := res.Depart
	for i, leg := range res.Legs {
		if leg.Enter != t0 {
			t.Fatalf("leg %d enters at %v, expected %v", i, leg.Enter, t0)
		}
		if leg.Wait < 0 || leg.Drive <= 0 {
			t.Fatalf("leg %d implausible: %+v", i, leg)
		}
		if i == len(res.Legs)-1 && leg.Wait != 0 {
			t.Fatalf("final leg waits %v at the destination", leg.Wait)
		}
		t0 += leg.Drive + leg.Wait
	}
	if math.Abs(t0-res.Arrive) > 1e-9 {
		t.Fatalf("leg timeline ends at %v, arrive %v", t0, res.Arrive)
	}
}

func TestDegradedFallsBackToFreeFlow(t *testing.T) {
	net := grid(t, 4, 4)
	src := &truthSource{net: net, deny: map[roadnet.NodeID]bool{}}
	for _, nd := range net.Nodes() {
		src.deny[nd.ID] = true
	}
	svc, err := New(net, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Plan(0, 15, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("estimate-free plan not marked Degraded")
	}
	ff, err := net.ShortestPath(0, 15, func(s *roadnet.Segment) float64 { return s.TravelTime() })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Route.Cost-ff.Cost) > 1e-9 {
		t.Fatalf("degraded cost %v != free-flow %v", res.Route.Cost, ff.Cost)
	}
	for i, leg := range res.Legs {
		if i < len(res.Legs)-1 && !leg.Degraded {
			t.Fatalf("leg %d through unestimated light not marked degraded", i)
		}
	}
	if svc.Stats().Degraded == 0 {
		t.Fatal("degraded counter not incremented")
	}
}

func TestStaleHealthFallsBack(t *testing.T) {
	net := grid(t, 4, 4)
	src := &truthSource{net: net, health: "stale"}
	svc, err := New(net, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Plan(0, 15, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("stale predictions must degrade to free-flow")
	}
}

func TestFreeFlowModeIsBaseline(t *testing.T) {
	net := grid(t, 5, 5)
	svc, src := service(t, net)
	before := src.calls.Load()
	res, err := svc.Plan(0, 24, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if src.calls.Load() != before {
		t.Fatal("free-flow mode touched the prediction source")
	}
	if res.Degraded {
		t.Fatal("free-flow baseline marked degraded")
	}
	ff, err := net.ShortestPath(0, 24, func(s *roadnet.Segment) float64 { return s.TravelTime() })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Route.Cost-ff.Cost) > 1e-9 {
		t.Fatalf("free-flow cost %v != Dijkstra %v", res.Route.Cost, ff.Cost)
	}
}

func TestCacheEpochFencing(t *testing.T) {
	net := grid(t, 5, 5)
	svc, src := service(t, net)
	if _, err := svc.Plan(0, 24, 100, false); err != nil {
		t.Fatal(err)
	}
	first := src.calls.Load()
	if first == 0 {
		t.Fatal("no source resolutions on a cold cache")
	}
	// Same epoch: the second identical plan must be answered entirely
	// from the cache.
	if _, err := svc.Plan(0, 24, 100, false); err != nil {
		t.Fatal(err)
	}
	if got := src.calls.Load(); got != first {
		t.Fatalf("warm plan re-touched the source: %d -> %d calls", first, got)
	}
	st := svc.Stats()
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("cache counters: %+v", st)
	}
	// Epoch bump (an estimation round published): cached predictions are
	// invalid and the source is consulted again.
	src.epoch.Add(1)
	if _, err := svc.Plan(0, 24, 100, false); err != nil {
		t.Fatal(err)
	}
	if got := src.calls.Load(); got == first {
		t.Fatal("epoch bump did not invalidate the cache")
	}
}

// TestPredCacheFillAllocs: filling the route cache allocates nothing. An
// entry is small enough for the map's own slots (an entry over 128 bytes
// is stored out of line, one allocation per fill), and an epoch change
// empties the map in place.
func TestPredCacheFillAllocs(t *testing.T) {
	net := grid(t, 3, 3)
	svc, src := service(t, net)
	var keys []mapmatch.Key
	for _, nd := range net.SignalisedNodes() {
		keys = append(keys, mapmatch.Key{Light: nd.ID, Approach: lights.NorthSouth}, mapmatch.Key{Light: nd.ID, Approach: lights.EastWest})
	}
	fill := func() {
		epoch := src.epoch.Add(1)
		for _, k := range keys {
			if !svc.resolve(epoch, k).usable {
				t.Fatalf("key %v resolved unusable", k)
			}
		}
	}
	fill() // sizes the map
	before := src.calls.Load()
	if got := testing.AllocsPerRun(100, fill); got != 0 {
		t.Errorf("filling %d cache entries allocates %.1f objects per epoch, want 0", len(keys), got)
	}
	if calls := src.calls.Load() - before; calls < 100*int64(len(keys)) {
		t.Fatalf("%d source calls: the fills were cache hits", calls)
	}
}

func TestPlanValidation(t *testing.T) {
	net := grid(t, 3, 3)
	svc, _ := service(t, net)
	if _, err := svc.Plan(-1, 5, 0, false); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("negative src: %v", err)
	}
	if _, err := svc.Plan(0, 99, 0, false); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("out-of-range dst: %v", err)
	}
}

func TestPlanUnreachable(t *testing.T) {
	// One-way pair: b cannot reach a.
	net := roadnet.NewNetwork(geo.Point{Lat: 22.543, Lon: 114.06})
	a := net.AddNode(pos(0, 0), nil)
	b := net.AddNode(pos(1000, 0), nil)
	if _, err := net.AddSegment(a, b, "ab", 10); err != nil {
		t.Fatal(err)
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	svc, err := New(net, &truthSource{net: net})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Plan(b, a, 0, false); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unreachable pair: %v", err)
	}
}

func TestConcurrentPlansUnderEpochChurn(t *testing.T) {
	net := grid(t, 6, 6)
	svc, src := service(t, net)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				src.epoch.Add(1)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				srcN := roadnet.NodeID((seed + i) % 36)
				dstN := roadnet.NodeID((seed*7 + i*3) % 36)
				if srcN == dstN {
					continue
				}
				if _, err := svc.Plan(srcN, dstN, float64(i), i%4 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}

func TestWriteMetricsExposition(t *testing.T) {
	net := grid(t, 4, 4)
	svc, _ := service(t, net)
	if _, err := svc.Plan(0, 15, 0, false); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	DeclareMetrics(reg)
	reg.Collect(svc.CollectMetrics)
	var sb strings.Builder
	if err := reg.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"lightd_route_plans_total 1",
		`lightd_route_cache_total{outcome="miss"}`,
		"lightd_route_expanded_nodes_bucket",
		"lightd_route_expanded_nodes_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestNewValidation(t *testing.T) {
	net := grid(t, 3, 3)
	if _, err := New(nil, &truthSource{net: net}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := New(net, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

func pos(x, y float64) geo.XY { return geo.XY{X: x, Y: y} }

var update = flag.Bool("update", false, "rewrite testdata/plan_golden.txt")

// TestPlanGolden pins what Plan answers — route, arrival, degraded flags,
// settled-node count and per-leg waits — for 200 seeded queries over a
// grid where every other light has no estimate, so the free-flow
// fallback and the heuristic both decide routes. The golden was recorded
// while Plan still carried its own A* and heap; the search it calls now
// must reproduce it byte for byte.
func TestPlanGolden(t *testing.T) {
	net := grid(t, 8, 8)
	svc, src := service(t, net)
	src.deny = map[roadnet.NodeID]bool{}
	rng := rand.New(rand.NewSource(16))
	for id := 0; id < net.NumNodes(); id++ {
		if rng.Intn(2) == 0 {
			src.deny[roadnet.NodeID(id)] = true
		}
	}
	var b strings.Builder
	for q := 0; q < 200; q++ {
		from, to := roadnet.NodeID(rng.Intn(net.NumNodes())), roadnet.NodeID(rng.Intn(net.NumNodes()))
		depart := rng.Float64() * 3600
		freeFlow := q%10 == 9
		res, err := svc.Plan(from, to, depart, freeFlow)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%d->%d depart=%v freeflow=%t: segs=%v arrive=%v cost=%v degraded=%t expanded=%d legs=",
			from, to, depart, freeFlow, res.Route.Segments, res.Arrive, res.Route.Cost, res.Degraded, res.Expanded)
		for _, leg := range res.Legs {
			fmt.Fprintf(&b, "[%d %d->%d enter=%v drive=%v wait=%v deg=%t]", leg.Seg, leg.From, leg.To, leg.Enter, leg.Drive, leg.Wait, leg.Degraded)
		}
		b.WriteByte('\n')
	}
	const path = "testdata/plan_golden.txt"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("query %d differs from the golden:\n got %s\nwant %s", i, gl[i], w)
		}
	}
	t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
}
