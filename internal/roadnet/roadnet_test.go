package roadnet

import (
	"math"
	"testing"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
)

func mustGrid(t testing.TB, cfg GridConfig) *Network {
	t.Helper()
	net, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestGenerateGridStructure(t *testing.T) {
	cfg := DefaultGridConfig()
	net := mustGrid(t, cfg)
	wantNodes := cfg.Rows * cfg.Cols
	if net.NumNodes() != wantNodes {
		t.Fatalf("nodes = %d, want %d", net.NumNodes(), wantNodes)
	}
	// Two-way edges: horizontal rows*(cols-1), vertical (rows-1)*cols, x2.
	wantSegs := 2 * (cfg.Rows*(cfg.Cols-1) + (cfg.Rows-1)*cfg.Cols)
	if net.NumSegments() != wantSegs {
		t.Fatalf("segments = %d, want %d", net.NumSegments(), wantSegs)
	}
	if got := len(net.SignalisedNodes()); got != wantNodes {
		t.Fatalf("signalised = %d, want all %d", got, wantNodes)
	}
	for _, s := range net.Segments() {
		if math.Abs(s.Length()-cfg.Spacing) > 1e-6 {
			t.Fatalf("segment %d length %v, want %v", s.ID, s.Length(), cfg.Spacing)
		}
		if s.SpeedLimit != cfg.SpeedLimit {
			t.Fatalf("segment %d speed %v", s.ID, s.SpeedLimit)
		}
	}
}

func TestGenerateGridDeterministic(t *testing.T) {
	cfg := DefaultGridConfig()
	a := mustGrid(t, cfg)
	b := mustGrid(t, cfg)
	for i := range a.Nodes() {
		sa := a.Node(NodeID(i)).Light.Ctrl.ScheduleAt(12 * 3600)
		sb := b.Node(NodeID(i)).Light.Ctrl.ScheduleAt(12 * 3600)
		if sa != sb {
			t.Fatalf("node %d schedules differ between identical seeds", i)
		}
	}
}

func TestGenerateGridValidation(t *testing.T) {
	bad := []GridConfig{
		{},
		{Rows: 1, Cols: 5, Spacing: 100, SpeedLimit: 10, CycleMin: 60, CycleMax: 100, RedFracMin: 0.3, RedFracMax: 0.6},
		func() GridConfig { c := DefaultGridConfig(); c.Spacing = 0; return c }(),
		func() GridConfig { c := DefaultGridConfig(); c.CycleMax = 10; return c }(),
		func() GridConfig { c := DefaultGridConfig(); c.RedFracMax = 1.5; return c }(),
		func() GridConfig { c := DefaultGridConfig(); c.DynamicShare = 2; return c }(),
		func() GridConfig { c := DefaultGridConfig(); c.SpeedLimit = -1; return c }(),
	}
	for i, cfg := range bad {
		if _, err := GenerateGrid(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGridScheduleBounds(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.DynamicShare = 0
	net := mustGrid(t, cfg)
	for _, nd := range net.SignalisedNodes() {
		s := nd.Light.Ctrl.ScheduleAt(0)
		if err := s.Validate(); err != nil {
			t.Fatalf("node %d: %v", nd.ID, err)
		}
		if s.Cycle < cfg.CycleMin-1 || s.Cycle > cfg.CycleMax {
			t.Fatalf("node %d cycle %v outside [%v, %v]", nd.ID, s.Cycle, cfg.CycleMin, cfg.CycleMax)
		}
	}
}

func TestSegmentApproach(t *testing.T) {
	net := NewNetwork(geo.Point{Lat: 22.5, Lon: 114})
	a := net.AddNode(geo.XY{X: 0, Y: 0}, nil)
	b := net.AddNode(geo.XY{X: 0, Y: 500}, nil) // north of a
	c := net.AddNode(geo.XY{X: 500, Y: 0}, nil) // east of a
	ns, err := net.AddSegment(a, b, "ns", 10)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := net.AddSegment(a, c, "ew", 10)
	if err != nil {
		t.Fatal(err)
	}
	if net.Segment(ns).Approach() != lights.NorthSouth {
		t.Fatal("northbound segment not NS")
	}
	if net.Segment(ew).Approach() != lights.EastWest {
		t.Fatal("eastbound segment not EW")
	}
	down, _ := net.AddSegment(b, a, "ns", 10)
	if net.Segment(down).Approach() != lights.NorthSouth {
		t.Fatal("southbound segment not NS")
	}
}

func TestAddSegmentErrors(t *testing.T) {
	net := NewNetwork(geo.Point{Lat: 22.5, Lon: 114})
	a := net.AddNode(geo.XY{X: 0, Y: 0}, nil)
	b := net.AddNode(geo.XY{X: 100, Y: 0}, nil)
	if _, err := net.AddSegment(a, a, "loop", 10); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := net.AddSegment(a, NodeID(99), "dangling", 10); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := net.AddSegment(a, b, "slow", 0); err == nil {
		t.Fatal("zero speed accepted")
	}
}

func TestFinalizeGuards(t *testing.T) {
	net := NewNetwork(geo.Point{Lat: 22.5, Lon: 114})
	if err := net.Finalize(); err == nil {
		t.Fatal("empty network finalized")
	}
	a := net.AddNode(geo.XY{X: 0, Y: 0}, nil)
	b := net.AddNode(geo.XY{X: 100, Y: 0}, nil)
	if _, err := net.AddSegment(a, b, "r", 10); err != nil {
		t.Fatal(err)
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := net.Finalize(); err == nil {
		t.Fatal("double finalize accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode after finalize should panic")
		}
	}()
	net.AddNode(geo.XY{X: 1, Y: 1}, nil)
}

func TestQueriesBeforeFinalizePanic(t *testing.T) {
	net := NewNetwork(geo.Point{Lat: 22.5, Lon: 114})
	net.AddNode(geo.XY{X: 0, Y: 0}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.NearestSegment(geo.XY{X: 0, Y: 0}, 100)
}

func TestNearestSegment(t *testing.T) {
	net := mustGrid(t, DefaultGridConfig())
	// A point 30 m north of the midpoint of the bottom-left horizontal road.
	q := geo.XY{X: 400, Y: 30}
	seg, d, ok := net.NearestSegment(q, 100)
	if !ok {
		t.Fatal("no segment found")
	}
	if math.Abs(d-30) > 1e-6 {
		t.Fatalf("distance = %v, want 30", d)
	}
	if seg.Geom().A.Y != 0 || seg.Geom().B.Y != 0 {
		t.Fatalf("matched non-bottom segment %v", seg.Geom())
	}
	// Out of range.
	if _, _, ok := net.NearestSegment(geo.XY{X: -5000, Y: -5000}, 100); ok {
		t.Fatal("found segment out of range")
	}
}

func TestNearestLight(t *testing.T) {
	cfg := DefaultGridConfig()
	net := mustGrid(t, cfg)
	q := geo.XY{X: cfg.Spacing*2 + 90, Y: cfg.Spacing * 1}
	node, d, ok := net.NearestLight(q, 500)
	if !ok {
		t.Fatal("no light found")
	}
	if math.Abs(d-90) > 1e-6 {
		t.Fatalf("distance = %v", d)
	}
	if node.Pos.X != cfg.Spacing*2 || node.Pos.Y != cfg.Spacing {
		t.Fatalf("wrong light at %v", node.Pos)
	}
	if _, _, ok := net.NearestLight(geo.XY{X: 1e7, Y: 1e7}, 100); ok {
		t.Fatal("light found out of range")
	}
}

func TestShortestPathGrid(t *testing.T) {
	cfg := DefaultGridConfig()
	net := mustGrid(t, cfg)
	src := NodeID(0)                     // corner (0,0)
	dst := NodeID(cfg.Rows*cfg.Cols - 1) // far corner
	r, err := net.ShortestPath(src, dst, func(s *Segment) float64 { return s.Length() })
	if err != nil {
		t.Fatal(err)
	}
	wantHops := (cfg.Rows - 1) + (cfg.Cols - 1)
	if len(r.Segments) != wantHops {
		t.Fatalf("hops = %d, want %d", len(r.Segments), wantHops)
	}
	if math.Abs(r.Cost-float64(wantHops)*cfg.Spacing) > 1e-6 {
		t.Fatalf("cost = %v", r.Cost)
	}
	nodes := r.Nodes(net)
	if nodes[0] != src || nodes[len(nodes)-1] != dst {
		t.Fatalf("endpoints wrong: %v", nodes)
	}
	// Consecutive connectivity.
	for i, sid := range r.Segments {
		if net.Segment(sid).From != nodes[i] || net.Segment(sid).To != nodes[i+1] {
			t.Fatalf("segment %d not contiguous", i)
		}
	}
}

func TestShortestPathSameNode(t *testing.T) {
	net := mustGrid(t, DefaultGridConfig())
	r, err := net.ShortestPath(3, 3, func(s *Segment) float64 { return s.Length() })
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Segments) != 0 || r.Cost != 0 {
		t.Fatalf("self route = %+v", r)
	}
	if r.Nodes(net) != nil {
		t.Fatal("self route nodes should be nil")
	}
}

func TestShortestPathErrors(t *testing.T) {
	net := mustGrid(t, DefaultGridConfig())
	if _, err := net.ShortestPath(0, NodeID(9999), func(s *Segment) float64 { return 1 }); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := net.ShortestPath(0, 1, func(s *Segment) float64 { return -1 }); err == nil {
		t.Fatal("negative edge accepted")
	}
	// Unreachable: a disconnected two-node pair.
	iso := NewNetwork(geo.Point{Lat: 22.5, Lon: 114})
	a := iso.AddNode(geo.XY{X: 0, Y: 0}, nil)
	b := iso.AddNode(geo.XY{X: 100, Y: 0}, nil)
	c := iso.AddNode(geo.XY{X: 500, Y: 500}, nil)
	if _, err := iso.AddSegment(a, b, "r", 10); err != nil {
		t.Fatal(err)
	}
	if err := iso.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := iso.ShortestPath(a, c, func(s *Segment) float64 { return 1 }); err == nil {
		t.Fatal("unreachable node routed")
	}
}

func TestPerpendicularAt(t *testing.T) {
	net := mustGrid(t, DefaultGridConfig())
	var ns, ew, ns2 *Segment
	for _, s := range net.Segments() {
		switch s.Approach() {
		case lights.NorthSouth:
			if ns == nil {
				ns = s
			} else if ns2 == nil {
				ns2 = s
			}
		case lights.EastWest:
			if ew == nil {
				ew = s
			}
		}
	}
	if !PerpendicularAt(ns, ew) {
		t.Fatal("NS/EW not perpendicular")
	}
	if PerpendicularAt(ns, ns2) {
		t.Fatal("NS/NS judged perpendicular")
	}
}

func TestSegmentPointAt(t *testing.T) {
	net := mustGrid(t, DefaultGridConfig())
	s := net.Segment(0)
	if p := s.PointAt(0); p != s.Geom().A {
		t.Fatal("PointAt(0) != A")
	}
	if p := s.PointAt(1); p != s.Geom().B {
		t.Fatal("PointAt(1) != B")
	}
	mid := s.PointAt(0.5)
	want := s.Geom().A.Add(s.Geom().B.Sub(s.Geom().A).Scale(0.5))
	if mid != want {
		t.Fatal("PointAt(0.5) wrong")
	}
}

func TestTravelTime(t *testing.T) {
	net := mustGrid(t, DefaultGridConfig())
	s := net.Segment(0)
	want := s.Length() / s.SpeedLimit
	if tt := s.TravelTime(); math.Abs(tt-want) > 1e-9 {
		t.Fatalf("TravelTime = %v, want %v", tt, want)
	}
}

func BenchmarkNearestSegment(b *testing.B) {
	net := mustGrid(b, DefaultGridConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := geo.XY{X: float64(i%4000) - 100, Y: float64((i * 7) % 4000)}
		net.NearestSegment(q, 300)
	}
}

func BenchmarkShortestPath(b *testing.B) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 12, 12
	net := mustGrid(b, cfg)
	cost := func(s *Segment) float64 { return s.TravelTime() }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = net.ShortestPath(0, NodeID(cfg.Rows*cfg.Cols-1), cost)
	}
}

func TestGenerateGridRotated(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.RotationDeg = 25
	net := mustGrid(t, cfg)
	// A +25 deg counterclockwise rotation turns compass headings 0/90
	// into 335/65; mod 180 the two road families sit at 155 and 65. The
	// approach classification must still split them.
	ns, ew := 0, 0
	for _, s := range net.Segments() {
		switch s.Approach() {
		case lights.NorthSouth:
			ns++
		case lights.EastWest:
			ew++
		}
		h := math.Mod(s.Heading(), 180)
		near := func(x, target float64) bool { return math.Abs(x-target) < 1 }
		if !near(h, 155) && !near(h, 65) {
			t.Fatalf("segment heading %v not on rotated axes", s.Heading())
		}
	}
	if ns == 0 || ew == 0 {
		t.Fatalf("approach classification degenerate: ns=%d ew=%d", ns, ew)
	}
	// Perpendicularity still holds between the two road families.
	var a, b *Segment
	for _, s := range net.Segments() {
		if s.Approach() == lights.NorthSouth && a == nil {
			a = s
		}
		if s.Approach() == lights.EastWest && b == nil {
			b = s
		}
	}
	if !PerpendicularAt(a, b) {
		t.Fatal("rotated families not perpendicular")
	}
}

func TestGenerateGridJitter(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.PosJitter = 120
	net := mustGrid(t, cfg)
	varied := false
	for _, s := range net.Segments() {
		if math.Abs(s.Length()-cfg.Spacing) > 10 {
			varied = true
		}
		if s.Length() < cfg.Spacing/2 {
			t.Fatalf("segment %d collapsed to %v m", s.ID, s.Length())
		}
	}
	if !varied {
		t.Fatal("jitter had no effect on segment lengths")
	}
}

func TestGenerateGridRotationJitterValidation(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.RotationDeg = 60
	if _, err := GenerateGrid(cfg); err == nil {
		t.Fatal("over-rotation accepted")
	}
	cfg = DefaultGridConfig()
	cfg.PosJitter = cfg.Spacing
	if _, err := GenerateGrid(cfg); err == nil {
		t.Fatal("oversized jitter accepted")
	}
}
