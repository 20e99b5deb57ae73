package trafficsim

import (
	"math"
	"testing"
	"time"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
)

func testNet(t testing.TB) *roadnet.Network {
	t.Helper()
	cfg := roadnet.DefaultGridConfig()
	cfg.Rows, cfg.Cols = 4, 4
	net, err := roadnet.GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testSim(t testing.TB, mutate func(*Config)) *Simulator {
	t.Helper()
	cfg := DefaultConfig(testNet(t))
	cfg.NumTaxis = 60
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	net := testNet(t)
	only := func(weights map[roadnet.NodeID]float64) map[roadnet.NodeID]float64 {
		for i := 0; i < net.NumNodes(); i++ {
			if _, ok := weights[roadnet.NodeID(i)]; !ok {
				weights[roadnet.NodeID(i)] = 0
			}
		}
		return weights
	}
	bad := []func(*Config){
		func(c *Config) { c.Net = nil },
		func(c *Config) { c.NumTaxis = 0 },
		func(c *Config) { c.CarSpacing = 0 },
		func(c *Config) { c.Headway = -1 },
		func(c *Config) { c.Accel = 0 },
		func(c *Config) { c.Decel = -2 },
		func(c *Config) { c.DwellMin = -1 },
		func(c *Config) { c.DwellMax = 5; c.DwellMin = 10 },
		func(c *Config) { c.DwellProb = 1.5 },
		func(c *Config) { c.NodeWeights = map[roadnet.NodeID]float64{3: math.NaN()} },
		func(c *Config) { c.NodeWeights = map[roadnet.NodeID]float64{3: math.Inf(1)} },
		func(c *Config) { c.NodeWeights = map[roadnet.NodeID]float64{3: math.Inf(-1)} },
		// One node to draw from: every destination is the origin.
		func(c *Config) { c.NodeWeights = only(map[roadnet.NodeID]float64{5: 1}) },
		func(c *Config) { c.NodeWeights = only(map[roadnet.NodeID]float64{}) },
		func(c *Config) { c.NodeWeights = map[roadnet.NodeID]float64{2: math.MaxFloat64, 9: math.MaxFloat64} },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(net)
		mut(&cfg)
		var err error
		within(t, 5*time.Second, func() { _, err = New(cfg) })
		if err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// within runs f and fails t if f has not returned after d.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
	}
}

// TestOneWayDeadEnd runs a fleet on networks whose segments do not all
// lead back: no trip may start or end where the rest of the network cannot
// be reached, and no taxi may leave the component it can come back from.
func TestOneWayDeadEnd(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		edges [][2]roadnet.NodeID
		home  int // nodes 0..home-1 form the component the fleet keeps to
	}{
		{"dead end a⇄b→c", 3, [][2]roadnet.NodeID{{0, 1}, {1, 0}, {1, 2}}, 2},
		{"chain a⇄b→c→d", 4, [][2]roadnet.NodeID{{0, 1}, {1, 0}, {1, 2}, {2, 3}}, 2},
		{"bridge a⇄b⇄c→d⇄e", 5, [][2]roadnet.NodeID{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 4}, {4, 3}}, 3},
		{"source d→a⇄b⇄c", 4, [][2]roadnet.NodeID{{3, 0}, {0, 1}, {1, 0}, {1, 2}, {2, 1}}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := roadnet.NewNetwork(geo.Point{Lat: 22.5, Lon: 114})
			for i := 0; i < tc.nodes; i++ {
				net.AddNode(geo.XY{X: float64(300 * (i % 2)), Y: float64(600 * i)}, nil)
			}
			for _, e := range tc.edges {
				if _, err := net.AddSegment(e[0], e[1], "r", 10); err != nil {
					t.Fatal(err)
				}
			}
			if err := net.Finalize(); err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(net)
			cfg.NumTaxis = 20
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for s.Now() < 1800 {
				s.Step()
				for _, st := range s.States() {
					if seg := net.Segment(st.Segment); int(seg.From) >= tc.home || int(seg.To) >= tc.home {
						t.Fatalf("t=%v: taxi %d on segment %d→%d, outside nodes 0..%d", s.Now(), st.ID, seg.From, seg.To, tc.home-1)
					}
				}
			}
			cfg.NodeWeights = map[roadnet.NodeID]float64{1: 0}
			if tc.home == 2 {
				if _, err := New(cfg); err == nil {
					t.Fatal("only node 0 is left to draw from, and New accepted it")
				}
			}
		})
	}
}

func TestSimAdvancesClock(t *testing.T) {
	s := testSim(t, nil)
	if s.Now() != 0 {
		t.Fatalf("initial time = %v", s.Now())
	}
	s.Step()
	if s.Now() != Tick {
		t.Fatalf("after one step = %v", s.Now())
	}
	s.RunUntil(60)
	if s.Now() != 60 {
		t.Fatalf("RunUntil = %v", s.Now())
	}
}

func TestStatesWellFormed(t *testing.T) {
	s := testSim(t, nil)
	s.RunUntil(300)
	states := s.States()
	if len(states) != s.NumVehicles() {
		t.Fatalf("states = %d, vehicles = %d", len(states), s.NumVehicles())
	}
	bb := geo.BBox{MinX: -1, MinY: -1, MaxX: 3 * 800 * 1.01, MaxY: 3 * 800 * 1.01}
	for _, st := range states {
		if !bb.Contains(st.Pos) {
			t.Fatalf("taxi %d off-map at %v", st.ID, st.Pos)
		}
		if st.SpeedMS < 0 || st.SpeedMS > 14 {
			t.Fatalf("taxi %d speed %v out of range", st.ID, st.SpeedMS)
		}
		if st.Stopped != (st.SpeedMS == 0) {
			t.Fatalf("taxi %d Stopped flag inconsistent", st.ID)
		}
	}
}

func TestSpeedNeverExceedsLimit(t *testing.T) {
	s := testSim(t, nil)
	limit := 13.9
	for i := 0; i < 1200; i++ {
		s.Step()
		for _, st := range s.States() {
			if st.SpeedMS > limit+1e-9 {
				t.Fatalf("t=%v: taxi %d at %v m/s exceeds limit", s.Now(), st.ID, st.SpeedMS)
			}
		}
	}
}

func TestVehiclesStopAtRed(t *testing.T) {
	// Single road into a signalised node with a long red: the taxi must
	// come to rest before the stop line and remain stopped through red.
	net := roadnet.NewNetwork(geo.Point{Lat: 22.5, Lon: 114})
	light := &lights.Intersection{ID: 0, Ctrl: lights.Static{S: lights.Schedule{Cycle: 200, Red: 150, Offset: 0}}}
	a := net.AddNode(geo.XY{X: 0, Y: 0}, nil)
	b := net.AddNode(geo.XY{X: 0, Y: 600}, light) // northbound approach, NS
	c := net.AddNode(geo.XY{X: 0, Y: 1200}, nil)
	if _, err := net.AddSegment(a, b, "in", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddSegment(b, c, "out", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddSegment(c, a, "back", 10); err != nil {
		t.Fatal(err) // gives the router an escape so trips always exist
	}
	if _, err := net.AddSegment(b, a, "in-rev", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddSegment(c, b, "out-rev", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddSegment(a, c, "back-rev", 10); err != nil {
		t.Fatal(err)
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(net)
	cfg.NumTaxis = 10
	cfg.DwellProb = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// NS approach shows red during [0, 150): expect a queue to form at b.
	s.RunUntil(140)
	if s.QueueLength(b, lights.NorthSouth) == 0 && s.QueueLength(b, lights.EastWest) == 0 {
		t.Fatal("no queue formed at red light")
	}
}

func TestQueueDischargesOnGreen(t *testing.T) {
	s := testSim(t, func(c *Config) { c.NumTaxis = 150 })
	net := s.cfg.Net
	// Run long enough to see queues form and fully clear somewhere.
	sawQueue := false
	for i := 0; i < 2400; i++ {
		s.Step()
		for _, nd := range net.SignalisedNodes() {
			if s.QueueLength(nd.ID, lights.NorthSouth) > 0 {
				sawQueue = true
			}
		}
		if sawQueue {
			break
		}
	}
	if !sawQueue {
		t.Fatal("no queue ever formed")
	}
	// After green, queues eventually drain; track one queue to zero.
	drained := false
	for i := 0; i < 4000 && !drained; i++ {
		s.Step()
		drained = true
		for _, nd := range net.SignalisedNodes() {
			if s.QueueLength(nd.ID, lights.NorthSouth) > 5 {
				drained = false
			}
		}
	}
	if !drained {
		t.Fatal("queues never drained below threshold")
	}
}

func TestStoppedSharePlausible(t *testing.T) {
	// Fig. 2(c): a substantial share of taxis are stationary at any
	// moment (red waits + dwells). Sanity-check the simulator produces a
	// mid-range share, not 0% or 100%.
	s := testSim(t, func(c *Config) { c.NumTaxis = 200 })
	s.RunUntil(600) // warm-up
	stopped, total := 0, 0
	for i := 0; i < 600; i++ {
		s.Step()
		for _, st := range s.States() {
			total++
			if st.Stopped {
				stopped++
			}
		}
	}
	share := float64(stopped) / float64(total)
	if share < 0.05 || share > 0.9 {
		t.Fatalf("stopped share = %.3f, implausible", share)
	}
}

func TestOccupancyToggles(t *testing.T) {
	s := testSim(t, func(c *Config) { c.DwellProb = 1; c.DwellMin = 5; c.DwellMax = 10 })
	occupancyChanged := make(map[int]bool)
	prev := make(map[int]bool)
	for _, st := range s.States() {
		prev[st.ID] = st.Occupied
	}
	for i := 0; i < 3600; i++ {
		s.Step()
		for _, st := range s.States() {
			if st.Occupied != prev[st.ID] {
				occupancyChanged[st.ID] = true
				prev[st.ID] = st.Occupied
			}
		}
	}
	if len(occupancyChanged) < s.NumVehicles()/2 {
		t.Fatalf("only %d/%d taxis ever changed occupancy", len(occupancyChanged), s.NumVehicles())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []State {
		s := testSim(t, nil)
		s.RunUntil(500)
		return s.States()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("state %d differs between identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestNodeWeightsBiasTraffic(t *testing.T) {
	net := testNet(t)
	hot := roadnet.NodeID(5)
	weights := make(map[roadnet.NodeID]float64)
	for i := 0; i < net.NumNodes(); i++ {
		weights[roadnet.NodeID(i)] = 0.2
	}
	weights[hot] = 50
	cfg := DefaultConfig(net)
	cfg.NumTaxis = 120
	cfg.NodeWeights = weights
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hotPos := net.Node(hot).Pos
	coldPos := net.Node(15).Pos
	nearHot, nearCold := 0, 0
	for i := 0; i < 1800; i++ {
		s.Step()
		for _, st := range s.States() {
			if st.Pos.Sub(hotPos).Norm() < 500 {
				nearHot++
			}
			if st.Pos.Sub(coldPos).Norm() < 500 {
				nearCold++
			}
		}
	}
	if nearHot <= nearCold*2 {
		t.Fatalf("hot node not hot: near-hot %d vs near-cold %d", nearHot, nearCold)
	}
}

func TestStopDurationsReflectRedLight(t *testing.T) {
	// The key property the red-light identifier relies on: observed stop
	// durations in front of a light cluster below the red duration.
	net := testNet(t)
	cfg := DefaultConfig(net)
	cfg.NumTaxis = 150
	cfg.DwellProb = 0 // isolate signal stops
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stopStart := make(map[int]float64)
	var durations []float64
	for i := 0; i < 3600; i++ {
		s.Step()
		for _, st := range s.States() {
			if st.Stopped {
				if _, ok := stopStart[st.ID]; !ok {
					stopStart[st.ID] = s.Now()
				}
			} else if t0, ok := stopStart[st.ID]; ok {
				durations = append(durations, s.Now()-t0)
				delete(stopStart, st.ID)
			}
		}
	}
	if len(durations) < 50 {
		t.Fatalf("too few stop events: %d", len(durations))
	}
	// Max static red in the default grid is bounded by CycleMax; with
	// queue discharge delays a stop can exceed the red itself but must
	// stay below ~2.5 cycles.
	maxDur := 0.0
	for _, d := range durations {
		if d > maxDur {
			maxDur = d
		}
	}
	if maxDur > 2.5*160 {
		t.Fatalf("implausible stop duration %v s", maxDur)
	}
}

func TestRunUntilPastTimeIsNoop(t *testing.T) {
	s := testSim(t, nil)
	s.RunUntil(10)
	now := s.Now()
	s.RunUntil(5)
	if s.Now() != now {
		t.Fatal("RunUntil went backwards")
	}
}

func TestQueuePositionsWithinSegment(t *testing.T) {
	s := testSim(t, func(c *Config) { c.NumTaxis = 250 })
	for i := 0; i < 1500; i++ {
		s.Step()
	}
	for _, st := range s.States() {
		seg := s.cfg.Net.Segment(st.Segment)
		// Position must lie on the segment geometry.
		d := seg.Geom().DistanceTo(st.Pos)
		if d > 1e-6 {
			t.Fatalf("taxi %d off its segment by %v m", st.ID, d)
		}
	}
}

func TestHeadingMatchesSegment(t *testing.T) {
	s := testSim(t, nil)
	s.RunUntil(100)
	for _, st := range s.States() {
		seg := s.cfg.Net.Segment(st.Segment)
		if math.Abs(st.Heading-seg.Heading()) > 1e-9 {
			t.Fatalf("taxi %d heading %v vs segment %v", st.ID, st.Heading, seg.Heading())
		}
	}
}

func BenchmarkSimStep200Taxis(b *testing.B) {
	cfg := roadnet.DefaultGridConfig()
	net, err := roadnet.GenerateGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scfg := DefaultConfig(net)
	scfg.NumTaxis = 200
	s, err := New(scfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkSimStep2000Taxis(b *testing.B) {
	cfg := roadnet.DefaultGridConfig()
	cfg.Rows, cfg.Cols = 10, 10
	net, err := roadnet.GenerateGrid(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scfg := DefaultConfig(net)
	scfg.NumTaxis = 2000
	s, err := New(scfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// books keeps, from outside, the ledgers the simulator does not. Sampled
// after every tick, it counts each approach's queue arrivals and
// departures and the waits between them, each taxi's seconds per phase
// and its odometer, and the trips the fleet finishes.
type books struct {
	arrivals, departures []int     // by queue index
	wait                 []float64 // summed queue time of departed taxis, by queue index
	drive, queue, dwell  []float64 // by taxi, seconds
	odometer             []float64 // by taxi, metres driven; a queue's creep is not driving
	trips                int
	last                 []taxiSample
}

// taxiSample is what books saw of one taxi at the end of a tick.
type taxiSample struct {
	phase    vehPhase
	qi       int
	joinedAt float64
	route    *roadnet.SegmentID // &route[0]: a new one is a new trip
	st       State
}

func newBooks(s *Simulator) *books {
	n := len(s.vehicles)
	b := &books{
		arrivals:   make([]int, len(s.queues)),
		departures: make([]int, len(s.queues)),
		wait:       make([]float64, len(s.queues)),
		drive:      make([]float64, n),
		queue:      make([]float64, n),
		dwell:      make([]float64, n),
		odometer:   make([]float64, n),
		last:       make([]taxiSample, n),
	}
	for id := range b.last {
		b.last[id] = b.look(s, id)
	}
	return b
}

func (b *books) look(s *Simulator, id int) taxiSample {
	v := s.vehicles[id]
	return taxiSample{phase: v.phase, qi: v.qi, route: &v.route[0], st: s.StateOf(id)}
}

// step steps s one tick and books it.
func (b *books) step(t *testing.T, s *Simulator) {
	t.Helper()
	s.Step()
	for id := range b.last {
		p, c := b.last[id], b.look(s, id)
		left := p.phase == phaseQueued && (c.phase != phaseQueued || c.qi != p.qi)
		joined := c.phase == phaseQueued && (p.phase != phaseQueued || c.qi != p.qi)
		c.joinedAt = p.joinedAt
		if left {
			b.departures[p.qi]++
			b.wait[p.qi] += s.now - p.joinedAt
		}
		if joined {
			b.arrivals[c.qi]++
			c.joinedAt = s.now
		}
		if c.route != p.route {
			b.trips++
		}
		moved := travelled(s.cfg.Net, p.st, c.st)
		// A tick counts in the phase the taxi stepped in: the one it was
		// seen in last, or driving if its queue released it.
		switch {
		case p.phase == phaseDriving || left:
			b.drive[id] += Tick
			b.odometer[id] += moved
		case p.phase == phaseQueued:
			b.queue[id] += Tick
		case p.phase == phaseDwelling:
			b.dwell[id] += Tick
			if moved != 0 {
				t.Fatalf("t=%v: taxi %d moved %v m at the kerb", s.now, id, moved)
			}
		default:
			t.Fatalf("t=%v: taxi %d in phase %d", s.now, id, p.phase)
		}
		b.last[id] = c
	}
}

// travelled is how far a taxi went along the road between two samples:
// to the end of the segment it was on and from the start of the next, if
// it crossed a node.
func travelled(net *roadnet.Network, a, b State) float64 {
	if a.Segment == b.Segment {
		return b.Pos.Sub(a.Pos).Norm()
	}
	return net.Segment(a.Segment).Geom().B.Sub(a.Pos).Norm() + b.Pos.Sub(net.Segment(b.Segment).Geom().A).Norm()
}

func TestStatsCollection(t *testing.T) {
	s := testSim(t, func(c *Config) { c.NumTaxis = 150; c.DwellProb = 0 })
	b := newBooks(s)
	for s.now < 2400 {
		b.step(t, s)
		// Without background traffic a queue holds exactly the taxis that
		// joined it and have not left.
		for qi := range s.queues {
			node, app := roadnet.NodeID(qi/2), lights.Approach(qi%2)
			if held := b.arrivals[qi] - b.departures[qi]; held != s.QueueLength(node, app) {
				t.Fatalf("t=%v approach %d/%v: %d arrivals, %d departures, queue length %d",
					s.now, node, app, b.arrivals[qi], b.departures[qi], s.QueueLength(node, app))
			}
		}
	}
	totalArr, totalDep := 0, 0
	for qi := range s.queues {
		arr, dep := b.arrivals[qi], b.departures[qi]
		totalArr += arr
		totalDep += dep
		if dep > arr {
			t.Fatalf("approach %d: more departures (%d) than arrivals (%d)", qi, dep, arr)
		}
		if dep == 0 {
			continue
		}
		if mean := b.wait[qi] / float64(dep); mean <= 0 || mean > 2.5*160 {
			t.Fatalf("approach %d: implausible mean wait %v", qi, mean)
		}
	}
	if totalDep == 0 || totalArr == 0 {
		t.Fatalf("no traffic recorded: arr=%d dep=%d", totalArr, totalDep)
	}
}

func TestStatsMeanWaitMatchesExpectedWaitShape(t *testing.T) {
	// At low arrival rates, the observed mean queue wait conditioned on
	// joining the queue approximates red/2 + small discharge delay —
	// the conditional counterpart of a random arrival's expected wait,
	// red²/(2·cycle). Verify the
	// aggregate sits in a physically sensible band.
	s := testSim(t, func(c *Config) { c.NumTaxis = 100; c.DwellProb = 0 })
	b := newBooks(s)
	for s.now < 3600 {
		b.step(t, s)
	}
	approaches := 0
	for qi := range s.queues {
		if b.departures[qi] < 10 {
			continue
		}
		node, app := roadnet.NodeID(qi/2), lights.Approach(qi%2)
		mean := b.wait[qi] / float64(b.departures[qi])
		truth := s.cfg.Net.Node(node).Light.ScheduleFor(app, 1800)
		// conditional mean wait ~ red/2 (+ discharge); allow wide band.
		if mean < truth.Red*0.2 || mean > truth.Red*1.6 {
			t.Fatalf("approach %d/%v: mean wait %v vs red %v", node, app, mean, truth.Red)
		}
		approaches++
	}
	if approaches < 5 {
		t.Fatalf("only %d approaches with enough departures", approaches)
	}
}

func TestBackgroundTrafficLengthensQueues(t *testing.T) {
	run := func(rate float64) int {
		s := testSim(t, func(c *Config) {
			c.NumTaxis = 80
			c.DwellProb = 0
			c.BackgroundRate = rate
		})
		maxQ := 0
		for i := 0; i < 1800; i++ {
			s.Step()
			for _, nd := range s.cfg.Net.SignalisedNodes() {
				for _, app := range []lights.Approach{lights.NorthSouth, lights.EastWest} {
					if q := s.QueueLength(nd.ID, app); q > maxQ {
						maxQ = q
					}
				}
			}
		}
		return maxQ
	}
	without := run(0)
	with := run(0.25)
	if with <= without {
		t.Fatalf("background traffic did not deepen queues: %d vs %d", with, without)
	}
}

func TestBackgroundTrafficDoesNotPerturbTaxis(t *testing.T) {
	// Background arrivals draw from their own rng; with rate 0 the taxi
	// stream must be bit-identical to a simulator without the feature.
	a := testSim(t, func(c *Config) { c.BackgroundRate = 0 })
	b := testSim(t, nil)
	a.RunUntil(600)
	b.RunUntil(600)
	sa, sb := a.States(), b.States()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("state %d differs with BackgroundRate=0", i)
		}
	}
}

func TestBackgroundTrafficValidation(t *testing.T) {
	cfg := DefaultConfig(testNet(t))
	cfg.BackgroundRate = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative background rate accepted")
	}
	cfg.BackgroundRate = 5
	if _, err := New(cfg); err == nil {
		t.Fatal("absurd background rate accepted")
	}
}

func TestBackgroundTrafficDeterministic(t *testing.T) {
	run := func() []State {
		s := testSim(t, func(c *Config) { c.BackgroundRate = 0.2 })
		s.RunUntil(400)
		return s.States()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("background sim not deterministic at state %d", i)
		}
	}
}

func TestVehicleStatsAccounting(t *testing.T) {
	s := testSim(t, func(c *Config) { c.NumTaxis = 40 })
	const horizon = 1800.0
	b := newBooks(s)
	for s.now < horizon {
		b.step(t, s)
	}
	if b.trips == 0 {
		t.Fatal("no trips completed")
	}
	fleetDistance := 0.0
	for id := range b.odometer {
		// Time buckets partition the horizon for each taxi.
		if total := b.drive[id] + b.queue[id] + b.dwell[id]; total != horizon {
			t.Fatalf("taxi %d time buckets sum to %v, want %v", id, total, horizon)
		}
		// Odometer consistency: distance <= drive time x speed limit.
		if b.odometer[id] > b.drive[id]*13.9+1 {
			t.Fatalf("taxi %d drove %v m in %v s of driving", id, b.odometer[id], b.drive[id])
		}
		fleetDistance += b.odometer[id]
	}
	if fleetDistance <= 0 {
		t.Fatal("no distance driven")
	}
}

func TestFleetStatsMeanSpeedPlausible(t *testing.T) {
	s := testSim(t, func(c *Config) { c.NumTaxis = 60 })
	b := newBooks(s)
	for s.now < 1800 {
		b.step(t, s)
	}
	distance, seconds := 0.0, 0.0
	for id := range b.odometer {
		distance += b.odometer[id]
		seconds += b.drive[id] + b.queue[id] + b.dwell[id]
	}
	meanSpeed := distance / seconds
	// Urban mean including stops: well below the 13.9 m/s limit, above
	// walking pace.
	if meanSpeed < 2 || meanSpeed > 13 {
		t.Fatalf("fleet mean speed %v m/s implausible", meanSpeed)
	}
}

// TestCachedSegmentAndSetbackConsistent: after every tick each taxi's
// cached segment and queue are the ones its route and position name, and
// each queue's setback is the one its length gives — in a world with
// background vehicles in the queues and every light switching plans
// mid-run.
func TestCachedSegmentAndSetbackConsistent(t *testing.T) {
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = 4, 5
	gcfg.DynamicShare = 0
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range net.SignalisedNodes() {
		a := nd.Light.Ctrl.ScheduleAt(0)
		b := lights.Schedule{Cycle: float64(int(a.Cycle * 1.5)), Red: float64(int(a.Red * 1.5)), Offset: a.Offset + 13}
		dyn, err := lights.NewDynamic([]lights.PlanEntry{
			{DaySecond: 0, S: a},
			{DaySecond: float64(300 + 7*i), S: b},
			{DaySecond: float64(900 + 11*i), S: a},
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.Light.Ctrl = dyn
	}
	cfg := DefaultConfig(net)
	cfg.NumTaxis = 150
	cfg.Seed = 23
	cfg.BackgroundRate = 0.1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deepest := 0
	b := newBooks(s)
	for s.now < 1500 {
		b.step(t, s)
		for _, v := range s.vehicles {
			seg := net.Segment(v.route[v.segIdx])
			if v.seg != seg || v.qi != queueIndex(seg.To, seg.Approach()) {
				t.Fatalf("t=%v taxi %d: cached segment %d and queue %d, route says %d and %d",
					s.now, v.id, v.seg.ID, v.qi, seg.ID, queueIndex(seg.To, seg.Approach()))
			}
		}
		for i := range s.queues {
			q := &s.queues[i]
			if want := float64(len(q.vehicles)/cfg.Lanes) * cfg.CarSpacing; math.Float64bits(q.setback) != math.Float64bits(want) {
				t.Fatalf("t=%v queue %d: setback %v with %d vehicles, want %v", s.now, i, q.setback, len(q.vehicles), want)
			}
			deepest = max(deepest, len(q.vehicles))
		}
	}
	queued := 0.0
	for _, q := range b.queue {
		queued += q
	}
	if deepest < 2*cfg.Lanes || b.trips == 0 || queued == 0 {
		t.Fatalf("the run never stacked a queue two ranks deep (deepest %d), finished no trip (%d) or queued no taxi (%v s)", deepest, b.trips, queued)
	}
}
