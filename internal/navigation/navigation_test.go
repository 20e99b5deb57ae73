package navigation

import (
	"math"
	"testing"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
)

func fig15(t testing.TB, rows, cols int) *roadnet.Network {
	t.Helper()
	cfg := DefaultFig15Config()
	cfg.Rows, cfg.Cols = rows, cols
	net, err := BuildFig15Grid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBuildFig15Grid(t *testing.T) {
	net := fig15(t, 4, 4)
	if net.NumNodes() != 16 {
		t.Fatalf("nodes = %d", net.NumNodes())
	}
	for _, nd := range net.Nodes() {
		if !nd.Signalised() {
			t.Fatalf("node %d unsignalised", nd.ID)
		}
		s := nd.Light.Ctrl.ScheduleAt(0)
		if s.Cycle < 120 || s.Cycle > 300 {
			t.Fatalf("cycle %v outside [120, 300]", s.Cycle)
		}
		if math.Abs(s.Red-s.Green()) > 1e-9 {
			t.Fatalf("red %v != green %v (paper: equal durations)", s.Red, s.Green())
		}
	}
	for _, s := range net.Segments() {
		if s.Length() != 1000 {
			t.Fatalf("segment length %v, want 1000", s.Length())
		}
	}
}

func TestBuildFig15GridValidation(t *testing.T) {
	bad := []func(*Fig15Config){
		func(c *Fig15Config) { c.Rows = 1 },
		func(c *Fig15Config) { c.SegmentMeters = 0 },
		func(c *Fig15Config) { c.SpeedMS = -1 },
		func(c *Fig15Config) { c.CycleMax = 10 },
	}
	for i, mut := range bad {
		cfg := DefaultFig15Config()
		mut(&cfg)
		if _, err := BuildFig15Grid(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRouteTimeIncludesWaits(t *testing.T) {
	net := fig15(t, 3, 3)
	r, err := net.ShortestPath(0, 8, func(s *roadnet.Segment) float64 { return s.Length() })
	if err != nil {
		t.Fatal(err)
	}
	driveOnly := 0.0
	for _, sid := range r.Segments {
		driveOnly += net.Segment(sid).TravelTime()
	}
	// Averaged over many departures, waits must add a positive amount
	// (red == green, so expected wait per light is cycle/8 .. cycle/4).
	var sum float64
	n := 200
	for i := 0; i < n; i++ {
		sum += RouteTime(net, r, float64(i)*37)
	}
	mean := sum / float64(n)
	if mean <= driveOnly {
		t.Fatalf("mean %v <= drive-only %v: waits missing", mean, driveOnly)
	}
	if d := RouteDistance(net, r); d != float64(len(r.Segments))*1000 {
		t.Fatalf("distance = %v", d)
	}
}

func TestLightAwareNeverWorseThanOwnEvaluation(t *testing.T) {
	// The exact time-dependent planner's route, evaluated, must cost what
	// the planner predicted, and never exceed the baseline's realised
	// time (both evaluated from the same departure).
	net := fig15(t, 5, 5)
	base := &ShortestTimePlanner{Net: net}
	aware := &LightAwarePlanner{Net: net}
	for depart := 0.0; depart < 2000; depart += 173 {
		src, dst := roadnet.NodeID(0), roadnet.NodeID(24)
		ra, err := aware.Plan(src, dst, depart)
		if err != nil {
			t.Fatal(err)
		}
		if got := RouteTime(net, ra, depart); math.Abs(got-ra.Cost) > 1e-6 {
			t.Fatalf("planner predicted %v, evaluation %v", ra.Cost, got)
		}
		rb, err := base.Plan(src, dst, depart)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Cost > RouteTime(net, rb, depart)+1e-6 {
			t.Fatalf("aware %v worse than baseline %v at depart %v",
				ra.Cost, RouteTime(net, rb, depart), depart)
		}
	}
}

func TestEnumeratingMatchesDijkstraOnSmallGrid(t *testing.T) {
	// With a generous hop budget both planners must find routes of equal
	// cost (the optimum), validating the exhaustive strategy against the
	// exact algorithm.
	net := fig15(t, 3, 3)
	dij := &LightAwarePlanner{Net: net}
	enum := &EnumeratingPlanner{Net: net, MaxExtraHops: 4}
	for depart := 0.0; depart < 1500; depart += 311 {
		a, err := dij.Plan(0, 8, depart)
		if err != nil {
			t.Fatal(err)
		}
		b, err := enum.Plan(0, 8, depart)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Cost-b.Cost) > 1e-6 {
			t.Fatalf("depart %v: dijkstra %v vs enumeration %v", depart, a.Cost, b.Cost)
		}
	}
}

func TestEnumeratingPlannerCaps(t *testing.T) {
	net := fig15(t, 6, 6)
	enum := &EnumeratingPlanner{Net: net, MaxExtraHops: 10, MaxPaths: 50}
	r, err := enum.Plan(0, 35, 0)
	if err != nil {
		t.Fatalf("capped enumeration must return incumbent: %v", err)
	}
	if !r.Truncated {
		t.Fatal("path explosion not flagged as Truncated")
	}
	if len(r.Segments) < 10 {
		t.Fatalf("truncated best route too short: %d segments", len(r.Segments))
	}
	if got := RouteTime(net, r, 0); math.Abs(got-r.Cost) > 1e-6 {
		t.Fatalf("truncated route cost %v, evaluation %v", r.Cost, got)
	}
	// An uncapped run on the same problem must not be flagged and can only
	// be as good or better.
	full := &EnumeratingPlanner{Net: net, MaxExtraHops: 2}
	rf, err := full.Plan(0, 35, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Truncated {
		t.Fatal("uncapped enumeration flagged Truncated")
	}
}

func TestEnumeratingPlannerCapExact(t *testing.T) {
	// With MaxPaths = 1 exactly one trajectory is evaluated and returned
	// (marked Truncated when more existed), never an error.
	net := fig15(t, 3, 3)
	enum := &EnumeratingPlanner{Net: net, MaxExtraHops: 4, MaxPaths: 1}
	r, err := enum.Plan(0, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated {
		t.Fatal("cap of 1 on a multi-path grid must truncate")
	}
	if len(r.Segments) == 0 {
		t.Fatal("no incumbent returned")
	}
}

func TestHopDistancesDirected(t *testing.T) {
	// a -> b -> c one-way chain: hops are finite forwards, unreachable
	// backwards. The undirected metric would claim symmetry.
	net := roadnet.NewNetwork(geoOrigin())
	a := net.AddNode(xy(0, 0), nil)
	b := net.AddNode(xy(1000, 0), nil)
	c := net.AddNode(xy(2000, 0), nil)
	if _, err := net.AddSegment(a, b, "ab", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddSegment(b, c, "bc", 10); err != nil {
		t.Fatal(err)
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	from, err := hopDistancesFrom(net, a)
	if err != nil {
		t.Fatal(err)
	}
	if from[b] != 1 || from[c] != 2 {
		t.Fatalf("forward hops = %v", from)
	}
	back, err := hopDistancesFrom(net, c)
	if err != nil {
		t.Fatal(err)
	}
	if back[a] != -1 || back[b] != -1 {
		t.Fatalf("one-way chain reachable backwards: %v", back)
	}
	to, err := hopDistancesTo(net, c)
	if err != nil {
		t.Fatal(err)
	}
	if to[a] != 2 || to[b] != 1 {
		t.Fatalf("hops to c = %v", to)
	}
	if _, err := hopDistance(net, c, a); err == nil {
		t.Fatal("unreachable directed pair accepted")
	}
	// The enumerating planner must respect the direction too.
	enum := &EnumeratingPlanner{Net: net, MaxExtraHops: 2}
	r, err := enum.Plan(a, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Segments) != 2 {
		t.Fatalf("one-way route = %v", r.Segments)
	}
	if _, err := enum.Plan(c, a, 0); err == nil {
		t.Fatal("enumeration routed against one-way segments")
	}
}

func TestLightAwarePlanZeroAllocSteadyState(t *testing.T) {
	// The pooled scratch keeps steady-state allocations to the route
	// reconstruction only (two small slices per Plan).
	net := fig15(t, 8, 8)
	p := &LightAwarePlanner{Net: net}
	if _, err := p.Plan(0, 63, 0); err != nil { // warm the pool
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := p.Plan(0, 63, 1234); err != nil {
			t.Fatal(err)
		}
	})
	// Route reconstruction allocates the result slice (append growth);
	// the Dijkstra working set must come from the pool.
	if avg > 8 {
		t.Fatalf("allocs/op = %v, scratch not pooled", avg)
	}
}

func TestDriveReachesDestination(t *testing.T) {
	net := fig15(t, 5, 5)
	res, err := Drive(net, &LightAwarePlanner{Net: net}, 0, 24, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops < 8 {
		t.Fatalf("hops = %d, want >= 8", res.Hops)
	}
	if res.Duration <= 0 || res.Distance < 8000 {
		t.Fatalf("result %+v implausible", res)
	}
	if res.Waits < 0 {
		t.Fatalf("negative waits %v", res.Waits)
	}
	// Duration decomposition: drive time + waits.
	drive := res.Distance / 16.7
	if math.Abs(res.Duration-(drive+res.Waits)) > 1 {
		t.Fatalf("duration %v != drive %v + waits %v", res.Duration, drive, res.Waits)
	}
}

func TestDriveSameNode(t *testing.T) {
	net := fig15(t, 3, 3)
	res, err := Drive(net, &LightAwarePlanner{Net: net}, 4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 0 || res.Hops != 0 {
		t.Fatalf("self trip = %+v", res)
	}
}

func TestWaitAtUnsignalised(t *testing.T) {
	// A segment into an unsignalised node never imposes a wait.
	net := roadnet.NewNetwork(geoOrigin())
	a := net.AddNode(xy(0, 0), nil)
	b := net.AddNode(xy(1000, 0), nil)
	sid, err := net.AddSegment(a, b, "r", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	for tt := 0.0; tt < 500; tt += 13 {
		if w := WaitAt(net, net.Segment(sid), tt); w != 0 {
			t.Fatalf("unsignalised wait %v at t=%v", w, tt)
		}
	}
}

func TestCompareNavigationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long comparison")
	}
	net := fig15(t, 8, 8)
	cfg := DefaultCompareConfig()
	cfg.TripsPerClass = 30
	points, err := CompareNavigation(net, 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 8 {
		t.Fatalf("only %d distance classes", len(points))
	}
	// Fig. 16 shape: aware never slower on average; saving grows with
	// distance and reaches a material level for long trips.
	for _, p := range points {
		if p.Aware > p.Baseline+1 {
			t.Errorf("distance %.0f km: aware %v slower than baseline %v", p.DistanceKM, p.Aware, p.Baseline)
		}
	}
	shortSaving := points[0].SavingPct
	var longSaving float64
	for _, p := range points[len(points)-3:] {
		longSaving += p.SavingPct
	}
	longSaving /= 3
	if longSaving < 5 {
		t.Fatalf("long-trip saving %.1f%%, want >= 5%%", longSaving)
	}
	if longSaving <= shortSaving-8 {
		t.Fatalf("saving does not grow with distance: short %.1f%%, long %.1f%%", shortSaving, longSaving)
	}
}

func TestCompareNavigationValidation(t *testing.T) {
	net := fig15(t, 3, 3)
	cfg := DefaultCompareConfig()
	cfg.TripsPerClass = 0
	if _, err := CompareNavigation(net, 1000, cfg); err == nil {
		t.Fatal("zero trips accepted")
	}
}

func BenchmarkEnumeratingPlan(b *testing.B) {
	net := fig15(b, 4, 4)
	p := &EnumeratingPlanner{Net: net, MaxExtraHops: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = p.Plan(0, 15, float64(i%3600))
	}
}

func geoOrigin() geo.Point { return geo.Point{Lat: 22.543, Lon: 114.06} }

func xy(x, y float64) geo.XY { return geo.XY{X: x, Y: y} }

func TestExpectedWait(t *testing.T) {
	// red = cycle/2: E[wait] = cycle/8.
	if w := ExpectedWait(200, 100); math.Abs(w-25) > 1e-9 {
		t.Fatalf("ExpectedWait = %v, want 25", w)
	}
	if w := ExpectedWait(0, 50); w != 0 {
		t.Fatalf("degenerate cycle wait = %v", w)
	}
	if w := ExpectedWait(100, 0); w != 0 {
		t.Fatalf("zero red wait = %v", w)
	}
	// red clamped to cycle.
	if w := ExpectedWait(100, 150); math.Abs(w-50) > 1e-9 {
		t.Fatalf("clamped wait = %v, want 50", w)
	}
}

func TestExpectedWaitMatchesSimulation(t *testing.T) {
	// Monte-Carlo check of the closed form on a real schedule.
	net := fig15(t, 3, 3)
	nd := net.SignalisedNodes()[0]
	var seg *roadnet.Segment
	for _, s := range net.Segments() {
		if s.To == nd.ID {
			seg = s
			break
		}
	}
	sched := nd.Light.ScheduleFor(seg.Approach(), 0)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += sched.WaitAt(float64(i) * 0.37)
	}
	mc := sum / float64(n)
	closed := ExpectedWait(sched.Cycle, sched.Red)
	if math.Abs(mc-closed) > closed*0.05 {
		t.Fatalf("Monte Carlo %v vs closed form %v", mc, closed)
	}
}

func TestProbabilisticPlannerBetweenBaselines(t *testing.T) {
	// Over many random trips, mean realised time must order:
	// light-aware <= probabilistic (approx) and probabilistic can never
	// use phase information, so light-aware strictly wins overall.
	net := fig15(t, 6, 6)
	base := &ShortestTimePlanner{Net: net}
	prob := &ProbabilisticPlanner{Net: net}
	aware := &LightAwarePlanner{Net: net}
	var sumBase, sumProb, sumAware float64
	trips := 0
	for depart := 0.0; depart < 4000; depart += 111 {
		src := roadnet.NodeID(int(depart) % 6)
		dst := roadnet.NodeID(35 - int(depart)%6)
		rb, err := Drive(net, base, src, dst, depart)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := Drive(net, prob, src, dst, depart)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := Drive(net, aware, src, dst, depart)
		if err != nil {
			t.Fatal(err)
		}
		sumBase += rb.Duration
		sumProb += rp.Duration
		sumAware += ra.Duration
		trips++
	}
	if sumAware >= sumProb {
		t.Fatalf("light-aware (%v) not better than probabilistic (%v)", sumAware/float64(trips), sumProb/float64(trips))
	}
	// On the Fig. 15 grid every light has red == green == cycle/2, so
	// probabilistic expected waits barely differentiate routes; it must
	// at least not be substantially worse than the blind baseline.
	if sumProb > sumBase*1.05 {
		t.Fatalf("probabilistic (%v) much worse than baseline (%v)", sumProb/float64(trips), sumBase/float64(trips))
	}
}

func TestProbabilisticPlannerWithIdentifiedSchedules(t *testing.T) {
	net := fig15(t, 4, 4)
	// Supply (noisy) identified statistics instead of ground truth.
	sch := map[roadnet.NodeID]CycleRed{}
	for _, nd := range net.SignalisedNodes() {
		s := nd.Light.ScheduleFor(0, 0)
		sch[nd.ID] = CycleRed{Cycle: s.Cycle + 2, Red: s.Red - 1}
	}
	p := &ProbabilisticPlanner{Net: net, Schedules: sch}
	r, err := p.Plan(0, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Segments) < 6 {
		t.Fatalf("route too short: %d segments", len(r.Segments))
	}
	// Cost includes expected waits: strictly above free-flow drive time.
	drive := 0.0
	for _, sid := range r.Segments {
		drive += net.Segment(sid).TravelTime()
	}
	if r.Cost <= drive {
		t.Fatalf("cost %v does not include expected waits (drive %v)", r.Cost, drive)
	}
}

func TestMapSource(t *testing.T) {
	m := MapSource{}
	s := lights.Schedule{Cycle: 98, Red: 39, Offset: 5}
	m.Set(3, lights.NorthSouth, s)
	got, ok := m.ScheduleFor(3, lights.NorthSouth, 0)
	if !ok || got != s {
		t.Fatalf("ScheduleFor = %+v, %v", got, ok)
	}
	if _, ok := m.ScheduleFor(3, lights.EastWest, 0); ok {
		t.Fatal("missing approach answered")
	}
	if _, ok := m.ScheduleFor(9, lights.NorthSouth, 0); ok {
		t.Fatal("missing node answered")
	}
}

func TestBelievedPlannerEqualsLightAwareUnderTruth(t *testing.T) {
	net := fig15(t, 5, 5)
	aware := &LightAwarePlanner{Net: net}
	believed := &BelievedPlanner{Net: net, Source: TruthSource{Net: net}}
	for depart := 0.0; depart < 2000; depart += 271 {
		a, err := aware.Plan(0, 24, depart)
		if err != nil {
			t.Fatal(err)
		}
		b, err := believed.Plan(0, 24, depart)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Cost-b.Cost) > 1e-9 {
			t.Fatalf("depart %v: aware %v vs believed-truth %v", depart, a.Cost, b.Cost)
		}
	}
}

func TestBelievedPlannerNilSource(t *testing.T) {
	net := fig15(t, 3, 3)
	p := &BelievedPlanner{Net: net}
	if _, err := p.Plan(0, 8, 0); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestBelievedPlannerWrongSchedulesStillNavigates(t *testing.T) {
	// A planner fed garbage schedules must still produce a valid route;
	// it just waits more when evaluated against the real lights.
	net := fig15(t, 4, 4)
	wrong := MapSource{}
	for _, nd := range net.SignalisedNodes() {
		wrong.Set(nd.ID, lights.NorthSouth, lights.Schedule{Cycle: 60, Red: 30, Offset: 13})
		wrong.Set(nd.ID, lights.EastWest, lights.Schedule{Cycle: 60, Red: 30, Offset: 43})
	}
	p := &BelievedPlanner{Net: net, Source: wrong}
	res, err := Drive(net, p, 0, 15, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops < 6 || res.Duration <= 0 {
		t.Fatalf("garbage-schedule trip: %+v", res)
	}
}

func TestTruthSourceUnsignalised(t *testing.T) {
	net := roadnet.NewNetwork(geoOrigin())
	a := net.AddNode(xy(0, 0), nil)
	b := net.AddNode(xy(1000, 0), nil)
	if _, err := net.AddSegment(a, b, "r", 10); err != nil {
		t.Fatal(err)
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, ok := (TruthSource{Net: net}).ScheduleFor(a, lights.NorthSouth, 0); ok {
		t.Fatal("unsignalised node answered")
	}
}

func TestCompareNavigationEnumerationMode(t *testing.T) {
	if testing.Short() {
		t.Skip("enumeration sweep")
	}
	net := fig15(t, 4, 4)
	cfg := DefaultCompareConfig()
	cfg.TripsPerClass = 5
	cfg.UseDijkstra = false
	cfg.MaxExtraHops = 2
	points, err := CompareNavigation(net, 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 {
		t.Fatalf("only %d classes", len(points))
	}
	for _, p := range points {
		if p.Aware > p.Baseline+1 {
			t.Fatalf("enumerating planner slower than baseline at %.0f km", p.DistanceKM)
		}
	}
}
