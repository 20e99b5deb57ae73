package mapmatch

import (
	"testing"

	"taxilight/internal/geo"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
	"taxilight/internal/trafficsim"
)

// refMatchWithStats is MatchWithStats as it stood before the road
// network's Snap handed back the closest point it had already computed:
// a usable filter that finds each candidate's closest point for itself, a
// nearest-segment query that finds it again for the distance, and a third
// look for the result. Kept verbatim as the oracle; the query underneath
// it is held to its own old body by roadnet's TestSnapMatchesReference.
func refMatchWithStats(m *Matcher, rec trace.Record, stats *MatchStats) (Matched, bool) {
	nearestSegmentFiltered := func(q geo.XY, maxDist float64, filter func(*roadnet.Segment) bool) (*roadnet.Segment, float64, bool) {
		sn, ok := m.net.Snap(q, maxDist, filter, nil)
		return sn.Seg, sn.Dist, ok
	}
	stats.Total++
	if !rec.GPSOK || rec.Validate() != nil {
		stats.RejectedGPS++
		return Matched{}, false
	}
	q := m.net.Projection().Forward(geo.Point{Lat: rec.Lat, Lon: rec.Lon})
	usable := func(s *roadnet.Segment) bool {
		if !m.net.Node(s.To).Signalised() {
			return false
		}
		_, tfrac := s.Geom().ClosestPoint(q)
		return (1-tfrac)*s.Length() <= m.cfg.MaxLightDist
	}
	seg, _, ok := nearestSegmentFiltered(q, m.cfg.MaxMatchDist, func(s *roadnet.Segment) bool {
		return usable(s) && geo.HeadingDiff(s.Heading(), rec.Heading) <= m.cfg.MaxHeadingDiff
	})
	fallback := false
	if !ok && rec.SpeedKMH == 0 {
		seg, _, ok = nearestSegmentFiltered(q, m.cfg.MaxMatchDist, usable)
		fallback = ok
	}
	if !ok {
		stats.RejectedNoSegment++
		return Matched{}, false
	}
	if fallback {
		stats.FallbackMatched++
	} else {
		stats.Matched++
	}
	snapped, tfrac := seg.Geom().ClosestPoint(q)
	return Matched{
		Plate:      rec.Plate,
		SpeedKMH:   rec.SpeedKMH,
		Occupied:   rec.Occupied,
		Seg:        seg,
		Light:      seg.To,
		Approach:   seg.Approach(),
		T:          rec.Time.Sub(m.epoch).Seconds(),
		DistToStop: (1 - tfrac) * seg.Length(),
		Snapped:    snapped,
	}, true
}

// tapeRecords renders a perf ledger tape shape (bench/tape.go: a rows x
// rows grid of blocks spacing metres apart under taxis taxis, cycles
// 80-140 s) as the tape carries it: every record through its CSV line,
// so coordinates, speed and heading are rounded as a reader of the tape
// sees them.
func tapeRecords(t testing.TB, rows int, spacing float64, taxis int, until float64) (*roadnet.Network, []trace.Record) {
	t.Helper()
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols, gcfg.Spacing = rows, rows, spacing
	gcfg.CycleMin, gcfg.CycleMax = 80, 140
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := trafficsim.DefaultConfig(net)
	scfg.NumTaxis = taxis
	sim, err := trafficsim.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := trace.DefaultGenConfig(sim, net.Projection())
	tcfg.Activity = nil
	g, err := trace.NewGenerator(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	var line []byte
	if err := g.Stream(until, func(r trace.Record) error {
		line = r.AppendCSV(line[:0])
		var onTape trace.Record
		if err := onTape.UnmarshalCSV(string(line)); err != nil {
			return err
		}
		recs = append(recs, onTape)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return net, recs
}

// TestMatchEqualsReferenceOnArterial holds Match to the body it replaced,
// record for record and field for field, over a tape with every outcome
// on it.
func TestMatchEqualsReferenceOnArterial(t *testing.T) {
	until, atLeast := 1100.0, 100_000
	if testing.Short() {
		until, atLeast = 250, 20_000
	}
	// The perf ledger's sparse tape shape: a 3x3 grid of 6 km blocks under
	// 2000 taxis, where most reports are nowhere near a light.
	net, recs := tapeRecords(t, 3, 6000, 2000, until)
	if len(recs) < atLeast {
		t.Fatalf("only %d records, want at least %d", len(recs), atLeast)
	}
	// A parked taxi's heading is whatever the unit last saw, and the
	// simulator's always agrees with the road: turn some around, so the
	// stopped-vehicle fallback decides more than a handful.
	for i := 0; i < len(recs); i += 13 {
		if recs[i].SpeedKMH == 0 {
			recs[i].Heading = float64((int(recs[i].Heading) + 90*(1+i%3)) % 360)
		}
	}
	// The generator emits no record the GPS gate rejects; a feed does.
	for i := 0; i < len(recs); i += 97 {
		switch i % 3 {
		case 0:
			recs[i].GPSOK = false
		case 1:
			recs[i].Heading = 400
		case 2:
			recs[i].Lat = 95
		}
	}
	m := matcher(t, net, nil)
	var got, want MatchStats
	for i, rec := range recs {
		gm, gok := m.MatchWithStats(rec, &got)
		wm, wok := refMatchWithStats(m, rec, &want)
		if gok != wok || gm != wm {
			t.Fatalf("record %d (%+v):\nmatch     %+v %v\nreference %+v %v", i, rec, gm, gok, wm, wok)
		}
	}
	if got != want {
		t.Fatalf("stats %+v, reference %+v", got, want)
	}
	n := len(recs)
	if got.Total != n || got.Matched < n/10 || got.FallbackMatched < n/1000 || got.RejectedGPS < n/200 || got.RejectedNoSegment < n/10 {
		t.Fatalf("the tape does not reach every outcome: %+v", got)
	}
	t.Logf("%d records: %+v", n, got)
}

// TestMatchAllocs: the filters Match hands to Snap are closures over the
// record and the query point, and none of them may reach the heap — the
// serving path calls Match once per report. Nor may any way out in front
// of them: the GPS gate, or the zone mask's rejection.
func TestMatchAllocs(t *testing.T) {
	net := gridNet(t)
	m := matcher(t, net, nil)
	noGPS := recordAt(net, geo.XY{X: 3, Y: 400}, 0, 40, epoch)
	noGPS.GPSOK = false
	for _, tc := range []struct {
		rec    trace.Record
		want   MatchStats
		marked bool // the zone mask lets the record through to Snap
	}{
		{recordAt(net, geo.XY{X: 3, Y: 400}, 0, 40, epoch), MatchStats{Total: 1, Matched: 1}, true},
		{recordAt(net, geo.XY{X: 3, Y: 400}, 90, 0, epoch), MatchStats{Total: 1, FallbackMatched: 1}, true},
		{recordAt(net, geo.XY{X: 3, Y: 400}, 90, 40, epoch), MatchStats{Total: 1, RejectedNoSegment: 1}, true},
		{recordAt(net, geo.XY{X: 400, Y: 400}, 0, 40, epoch), MatchStats{Total: 1, RejectedNoSegment: 1}, false},
		{noGPS, MatchStats{Total: 1, RejectedGPS: 1}, true},
	} {
		var got MatchStats
		q := net.Projection().Forward(geo.Point{Lat: tc.rec.Lat, Lon: tc.rec.Lon})
		if m.MatchWithStats(tc.rec, &got); got != tc.want || m.zone.canMatch(q) != tc.marked {
			t.Fatalf("fixture took the wrong path: %+v, want %+v; marked %v, want %v", got, tc.want, m.zone.canMatch(q), tc.marked)
		}
		if n := testing.AllocsPerRun(200, func() { m.Match(tc.rec) }); n != 0 {
			t.Errorf("%+v: Match allocates %v times per call, want 0", tc.want, n)
		}
	}
}

// BenchmarkMatchTapeShapes times Match per record on both perf ledger
// tape shapes, split by the path a record takes: a moving report the zone
// mask lets through, a stopped one (which may also ask the fallback), and
// one the mask rejects in a lookup.
func BenchmarkMatchTapeShapes(b *testing.B) {
	for _, shape := range []struct {
		name    string
		rows    int
		spacing float64
		taxis   int
	}{
		{"city", 8, 800, 800},
		{"arterial", 3, 6000, 2000},
	} {
		net, recs := tapeRecords(b, shape.rows, shape.spacing, shape.taxis, 300)
		m := matcher(b, net, nil)
		var moving, stopped, rejected []trace.Record
		for _, rec := range recs {
			switch q := net.Projection().Forward(geo.Point{Lat: rec.Lat, Lon: rec.Lon}); {
			case !m.zone.canMatch(q):
				rejected = append(rejected, rec)
			case rec.SpeedKMH == 0:
				stopped = append(stopped, rec)
			default:
				moving = append(moving, rec)
			}
		}
		for _, class := range []struct {
			name string
			recs []trace.Record
		}{{"moving", moving}, {"stopped", stopped}, {"zone-rejected", rejected}} {
			b.Run(shape.name+"/"+class.name, func(b *testing.B) {
				if len(class.recs) == 0 {
					b.Skip("no record of this class")
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.Match(class.recs[i%len(class.recs)])
				}
			})
		}
	}
}
