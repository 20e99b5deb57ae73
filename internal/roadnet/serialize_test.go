package roadnet

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
)

func TestNetworkRoundTripGrid(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 3, 3
	cfg.DynamicShare = 0.3 // exercise dynamic controllers too
	orig, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != orig.NumNodes() || back.NumSegments() != orig.NumSegments() {
		t.Fatalf("counts differ: %d/%d vs %d/%d",
			back.NumNodes(), back.NumSegments(), orig.NumNodes(), orig.NumSegments())
	}
	for i := 0; i < orig.NumNodes(); i++ {
		a, b := orig.Node(NodeID(i)), back.Node(NodeID(i))
		if a.Pos != b.Pos {
			t.Fatalf("node %d position differs", i)
		}
		if (a.Light == nil) != (b.Light == nil) {
			t.Fatalf("node %d signalisation differs", i)
		}
		if a.Light != nil {
			// Schedules must agree at many probe times, covering both
			// static and dynamic controllers.
			for _, tt := range []float64{0, 3600, 8 * 3600, 12 * 3600, 18 * 3600, 90000} {
				sa := a.Light.Ctrl.ScheduleAt(tt)
				sb := b.Light.Ctrl.ScheduleAt(tt)
				if sa != sb {
					t.Fatalf("node %d schedule at %v differs: %+v vs %+v", i, tt, sa, sb)
				}
			}
		}
	}
	for i := 0; i < orig.NumSegments(); i++ {
		a, b := orig.Segment(SegmentID(i)), back.Segment(SegmentID(i))
		if a.From != b.From || a.To != b.To || a.Name != b.Name || a.SpeedLimit != b.SpeedLimit {
			t.Fatalf("segment %d differs", i)
		}
	}
	// The restored network must be query-ready.
	if _, _, ok := back.NearestSegment(geo.XY{X: 100, Y: 10}, 200); !ok {
		t.Fatal("restored network not queryable")
	}
}

func TestNetworkRoundTripOrigin(t *testing.T) {
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols = 2, 2
	orig, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Projection().Origin != orig.Projection().Origin {
		t.Fatalf("origin differs: %v vs %v",
			back.Projection().Origin, orig.Projection().Origin)
	}
}

// overrideController is a controller of a type WriteNetwork does not know:
// base before from, override from then on.
type overrideController struct {
	base, override lights.Schedule
	from           float64
}

func (c overrideController) ScheduleAt(t float64) lights.Schedule {
	if t >= c.from {
		return c.override
	}
	return c.base
}

func (c overrideController) Changes(t0, t1 float64) []float64 {
	if c.from >= t0 && c.from < t1 {
		return []float64{c.from}
	}
	return nil
}

func TestWriteNetworkFlattensUnknownControllers(t *testing.T) {
	base := lights.Schedule{Cycle: 100, Red: 50, Offset: 7}
	ctrl := overrideController{base: base, override: lights.Schedule{Cycle: 150, Red: 75}, from: 1000}
	net := NewNetwork(geo.Point{Lat: 22.5, Lon: 114})
	a := net.AddNode(geo.XY{X: 0, Y: 0}, &lights.Intersection{ID: 0, Ctrl: ctrl})
	b := net.AddNode(geo.XY{X: 500, Y: 0}, nil)
	if _, err := net.AddSegment(a, b, "r", 10); err != nil {
		t.Fatal(err)
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, net); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{0, 1500} {
		if got := back.Node(a).Light.Ctrl.ScheduleAt(at); got != base {
			t.Fatalf("flattened schedule at %v = %+v, want %+v", at, got, base)
		}
	}
}

func TestReadNetworkErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"garbage", "not json"},
		{"wrong format", `{"format":"other","version":1,"nodes":0,"segments":0}`},
		{"wrong version", `{"format":"taxilight-network","version":9,"nodes":0,"segments":0}`},
		{"count mismatch", `{"format":"taxilight-network","version":1,"nodes":5,"segments":0}`},
		{"unknown kind", `{"format":"taxilight-network","version":1,"nodes":0,"segments":0}
{"kind":"blob"}`},
		{"node out of order", `{"format":"taxilight-network","version":1,"nodes":1,"segments":0}
{"kind":"node","id":7,"x":0,"y":0}`},
		{"bad light", `{"format":"taxilight-network","version":1,"nodes":1,"segments":0}
{"kind":"node","id":0,"x":0,"y":0,"light":{"id":0,"kind":"static"}}`},
		{"unknown light kind", `{"format":"taxilight-network","version":1,"nodes":1,"segments":0}
{"kind":"node","id":0,"x":0,"y":0,"light":{"id":0,"kind":"quantum"}}`},
	}
	for _, c := range cases {
		if _, err := ReadNetwork(strings.NewReader(c.data)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestLoadNetworkResolution checks LoadNetwork's order: a network file
// wins over an OSM extract, an extract over the grid parameters, and the
// grid is DefaultGridConfig's at rows x cols and seed.
func TestLoadNetworkResolution(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultGridConfig()
	cfg.Rows, cfg.Cols, cfg.Seed = 2, 3, 7
	want, err := GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes bytes.Buffer
	if err := WriteNetwork(&wantBytes, want); err != nil {
		t.Fatal(err)
	}
	netPath, osmPath := filepath.Join(dir, "net.txt"), filepath.Join(dir, "city.osm")
	if err := os.WriteFile(netPath, wantBytes.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(osmPath, []byte(fixtureOSM), 0o644); err != nil {
		t.Fatal(err)
	}
	osmNet, err := ImportOSM(strings.NewReader(fixtureOSM), DefaultOSMConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		netFile, osmFile string
		want             *Network
	}{
		{"network file", netPath, osmPath, want},
		{"osm extract", "", osmPath, osmNet},
		{"grid", "", "", want},
	} {
		got, err := LoadNetwork(tc.netFile, tc.osmFile, cfg.Rows, cfg.Cols, cfg.Seed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var a, b bytes.Buffer
		if err := WriteNetwork(&a, got); err != nil {
			t.Fatal(err)
		}
		if err := WriteNetwork(&b, tc.want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: loaded a different network", tc.name)
		}
	}
	if _, err := LoadNetwork(filepath.Join(dir, "missing.txt"), "", 2, 3, 7); err == nil {
		t.Fatal("a missing network file loaded")
	}
}
