package mapmatch

import (
	"math"
	"testing"
	"time"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
	"taxilight/internal/trafficsim"
)

var epoch = time.Date(2014, 12, 5, 0, 0, 0, 0, time.UTC)

func gridNet(t testing.TB) *roadnet.Network {
	t.Helper()
	cfg := roadnet.DefaultGridConfig()
	cfg.Rows, cfg.Cols = 4, 4
	net, err := roadnet.GenerateGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func matcher(t testing.TB, net *roadnet.Network, mutate func(*Config)) *Matcher {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := New(net, epoch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// recordAt builds a record at a planar position with the given heading.
func recordAt(net *roadnet.Network, pos geo.XY, heading, speedKMH float64, at time.Time) trace.Record {
	pt := net.Projection().Inverse(pos)
	return trace.Record{
		Plate: "B00001", Lon: pt.Lon, Lat: pt.Lat, Time: at,
		DeviceID: 1, SpeedKMH: speedKMH, Heading: heading, GPSOK: true,
		SIM: "138", Color: "yellow",
	}
}

func TestNewValidation(t *testing.T) {
	net := gridNet(t)
	if _, err := New(nil, epoch, DefaultConfig()); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := New(net, time.Time{}, DefaultConfig()); err == nil {
		t.Fatal("zero epoch accepted")
	}
	bad := []func(*Config){
		func(c *Config) { c.MaxMatchDist = 0 },
		func(c *Config) { c.MaxHeadingDiff = 0 },
		func(c *Config) { c.MaxHeadingDiff = 200 },
		func(c *Config) { c.MaxLightDist = -1 },
		func(c *Config) { c.Workers = -2 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(net, epoch, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMatchSnapsToHeadingConsistentSegment(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, nil)
	// Point near the corner where an EW road is closest, but the taxi
	// heads north at speed: must match a NS segment (Fig. 5 rule).
	rec := recordAt(net, geo.XY{X: 15, Y: 650}, 0, 40, epoch.Add(10*time.Second))
	mt, ok := m.Match(rec)
	if !ok {
		t.Fatal("no match")
	}
	if mt.Approach != lights.NorthSouth {
		t.Fatalf("approach = %v, heading %v", mt.Approach, mt.Seg.Heading())
	}
	if geo.HeadingDiff(mt.Seg.Heading(), 0) > 30 {
		t.Fatalf("heading-inconsistent segment matched: %v", mt.Seg.Heading())
	}
	if mt.T != 10 {
		t.Fatalf("T = %v, want 10", mt.T)
	}
}

func TestMatchDirectionalityNorthVsSouth(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, nil)
	pos := geo.XY{X: 3, Y: 400} // on the x=0 NS road, mid-block
	north := recordAt(net, pos, 0, 40, epoch)
	south := recordAt(net, pos, 180, 40, epoch)
	mn, ok1 := m.Match(north)
	ms, ok2 := m.Match(south)
	if !ok1 || !ok2 {
		t.Fatal("matches failed")
	}
	if mn.Seg.ID == ms.Seg.ID {
		t.Fatal("opposite headings matched the same directed segment")
	}
	if mn.Light == ms.Light {
		t.Fatal("opposite directions should be controlled by different lights")
	}
}

func TestMatchRejectsBadRecords(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, nil)
	good := recordAt(net, geo.XY{X: 3, Y: 400}, 0, 40, epoch)

	noGPS := good
	noGPS.GPSOK = false
	if _, ok := m.Match(noGPS); ok {
		t.Fatal("GPS-unavailable record matched")
	}
	invalid := good
	invalid.Plate = ""
	if _, ok := m.Match(invalid); ok {
		t.Fatal("invalid record matched")
	}
	farAway := recordAt(net, geo.XY{X: 90000, Y: 90000}, 0, 40, epoch)
	if _, ok := m.Match(farAway); ok {
		t.Fatal("far-away record matched")
	}
}

func TestMatchStoppedFallsBackWithoutHeading(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, nil)
	// Stopped taxi with stale heading perpendicular to the road it is
	// on: speed 0 allows the plain-nearest fallback.
	pos := geo.XY{X: 3, Y: 700} // near the top of the first NS block
	rec := recordAt(net, pos, 90, 0, epoch)
	mt, ok := m.Match(rec)
	if !ok {
		t.Fatal("stopped record unmatched")
	}
	if d := mt.Seg.Geom().DistanceTo(pos); d > 10 {
		t.Fatalf("fallback matched a segment %v m away", d)
	}
}

func TestMatchMovingStaleHeadingRejected(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, func(c *Config) { c.MaxMatchDist = 5 })
	// Moving taxi whose heading disagrees with every nearby segment and
	// tiny match radius: must fail rather than mismatch.
	rec := recordAt(net, geo.XY{X: 3, Y: 400}, 45, 40, epoch)
	if _, ok := m.Match(rec); ok {
		t.Fatal("heading-inconsistent moving record matched")
	}
}

func TestMatchDistToStop(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, nil)
	// Northbound on the x=0 road at y=700: stop line at y=800, so 100 m.
	rec := recordAt(net, geo.XY{X: 0, Y: 700}, 0, 40, epoch)
	mt, ok := m.Match(rec)
	if !ok {
		t.Fatal("no match")
	}
	if mt.DistToStop < 95 || mt.DistToStop > 105 {
		t.Fatalf("DistToStop = %v, want ~100", mt.DistToStop)
	}
}

func TestMatchRejectsMidBlockBeyondLightDist(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, func(c *Config) { c.MaxLightDist = 100 })
	rec := recordAt(net, geo.XY{X: 0, Y: 400}, 0, 40, epoch) // 400 m to stop
	if _, ok := m.Match(rec); ok {
		t.Fatal("record beyond MaxLightDist matched")
	}
}

func TestPartitionRecordsGroupsAndSorts(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, nil)
	// Build records approaching a single light from both roads, shuffled
	// in time order.
	var recs []trace.Record
	for i := 10; i > 0; i-- {
		at := epoch.Add(time.Duration(i*20) * time.Second)
		recs = append(recs, recordAt(net, geo.XY{X: 800, Y: 800 - float64(i)*25}, 0, 30, at))
		recs = append(recs, recordAt(net, geo.XY{X: 800 - float64(i)*25, Y: 800}, 90, 30, at))
	}
	p := m.PartitionRecords(recs)
	if len(p) < 2 {
		t.Fatalf("partitions = %d, want >= 2", len(p))
	}
	total := 0
	for k, ms := range p {
		total += len(ms)
		for i := 1; i < len(ms); i++ {
			if ms[i].T < ms[i-1].T {
				t.Fatalf("partition %v not sorted", k)
			}
		}
		for _, mt := range ms {
			if mt.Light != k.Light || mt.Approach != k.Approach {
				t.Fatalf("record in wrong partition %v: %+v", k, mt)
			}
		}
	}
	if total != len(recs) {
		t.Fatalf("partitioned %d of %d records", total, len(recs))
	}
}

func TestPartitionParallelMatchesSerial(t *testing.T) {
	net := gridNet(t)
	// End-to-end records from the simulator for realism.
	scfg := trafficsim.DefaultConfig(net)
	scfg.NumTaxis = 80
	sim, err := trafficsim.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := trace.DefaultGenConfig(sim, net.Projection())
	gcfg.Activity = nil
	g, err := trace.NewGenerator(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Collect(900)

	serial := matcher(t, net, func(c *Config) { c.Workers = 1 }).PartitionRecords(recs)
	parallel := matcher(t, net, func(c *Config) { c.Workers = 8 }).PartitionRecords(recs)
	if len(serial) != len(parallel) {
		t.Fatalf("partition counts differ: %d vs %d", len(serial), len(parallel))
	}
	for k, ms := range serial {
		pm, ok := parallel[k]
		if !ok || len(pm) != len(ms) {
			t.Fatalf("partition %v differs: %d vs %d", k, len(ms), len(pm))
		}
		for i := range ms {
			if ms[i].Plate != pm[i].Plate || ms[i].T != pm[i].T {
				t.Fatalf("partition %v entry %d differs", k, i)
			}
		}
	}
}

func TestPartitionEmptyInput(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, nil)
	p := m.PartitionRecords(nil)
	if len(p) != 0 {
		t.Fatalf("empty input gave %d partitions", len(p))
	}
}

func TestPerpendicularKey(t *testing.T) {
	k := Key{Light: 5, Approach: lights.NorthSouth}
	pk := k.PerpendicularKey()
	if pk.Light != 5 || pk.Approach != lights.EastWest {
		t.Fatalf("PerpendicularKey = %+v", pk)
	}
	if back := pk.PerpendicularKey(); back != k {
		t.Fatalf("double perpendicular != identity: %+v", back)
	}
}

func BenchmarkPartition10k(b *testing.B) {
	net := gridNet(b)
	scfg := trafficsim.DefaultConfig(net)
	scfg.NumTaxis = 150
	sim, err := trafficsim.New(scfg)
	if err != nil {
		b.Fatal(err)
	}
	gcfg := trace.DefaultGenConfig(sim, net.Projection())
	gcfg.Activity = nil
	g, err := trace.NewGenerator(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	recs := g.Collect(1800)
	m := matcher(b, net, nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.PartitionRecords(recs)
	}
}

func TestMatchWithStats(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, nil)
	var stats MatchStats

	good := recordAt(net, geo.XY{X: 15, Y: 650}, 0, 40, epoch)
	if _, ok := m.MatchWithStats(good, &stats); !ok {
		t.Fatal("good record unmatched")
	}
	noGPS := good
	noGPS.GPSOK = false
	if _, ok := m.MatchWithStats(noGPS, &stats); ok {
		t.Fatal("bad GPS matched")
	}
	far := recordAt(net, geo.XY{X: 90000, Y: 90000}, 0, 40, epoch)
	if _, ok := m.MatchWithStats(far, &stats); ok {
		t.Fatal("far record matched")
	}
	stopped := recordAt(net, geo.XY{X: 3, Y: 700}, 90, 0, epoch)
	if _, ok := m.MatchWithStats(stopped, &stats); !ok {
		t.Fatal("stopped fallback unmatched")
	}

	if stats.Total != 4 || stats.Matched != 1 || stats.FallbackMatched != 1 ||
		stats.RejectedGPS != 1 || stats.RejectedNoSegment != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if r := stats.MatchRate(); math.Abs(r-0.5) > 1e-9 {
		t.Fatalf("MatchRate = %v", r)
	}
	if (MatchStats{}).MatchRate() != 0 {
		t.Fatal("empty MatchRate")
	}
}

func TestMatchWithStatsAgreesWithMatch(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, nil)
	var stats MatchStats
	recs := []trace.Record{
		recordAt(net, geo.XY{X: 15, Y: 650}, 0, 40, epoch),
		recordAt(net, geo.XY{X: 3, Y: 400}, 180, 40, epoch),
		recordAt(net, geo.XY{X: 790, Y: 400}, 0, 25, epoch),
	}
	for i, rec := range recs {
		a, okA := m.Match(rec)
		b, okB := m.MatchWithStats(rec, &stats)
		if okA != okB {
			t.Fatalf("record %d: ok mismatch", i)
		}
		if okA && (a.Light != b.Light || a.Approach != b.Approach || a.DistToStop != b.DistToStop) {
			t.Fatalf("record %d: results differ: %+v vs %+v", i, a, b)
		}
	}
}

func TestPartitionRecordsWithStatsAgrees(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, nil)
	var recs []trace.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, recordAt(net, geo.XY{X: 800, Y: 800 - float64(i)*20}, 0, 30,
			epoch.Add(time.Duration(i*20)*time.Second)))
	}
	bad := recordAt(net, geo.XY{X: 90000, Y: 0}, 0, 30, epoch)
	recs = append(recs, bad)
	withStats, stats := m.PartitionRecordsWithStats(recs)
	plain := m.PartitionRecords(recs)
	if len(withStats) != len(plain) {
		t.Fatalf("partition counts differ: %d vs %d", len(withStats), len(plain))
	}
	for k, ms := range plain {
		if len(withStats[k]) != len(ms) {
			t.Fatalf("partition %v differs", k)
		}
	}
	if stats.Total != len(recs) || stats.RejectedNoSegment != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}
