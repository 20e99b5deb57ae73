package core

import (
	"testing"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
)

func matchedAt(plate string, t float64, pos geo.XY, occupied bool, light int, distToStop float64) mapmatch.Matched {
	return mapmatch.Matched{
		Plate: plate, Occupied: occupied,
		T:          t,
		Snapped:    pos,
		Light:      42, // overwritten below where needed
		DistToStop: distToStop,
		Approach:   lights.NorthSouth,
	}
}

func TestBuildStopIndexCrossPartitionLookback(t *testing.T) {
	// The taxi drives on light 1's approach (occupied), then pulls over
	// on light 2's approach to drop the passenger. The lookback record
	// lives in partition 1, the dwell in partition 2: per-partition
	// extraction would miss the occupancy flip; the global index must
	// flag the dwell.
	driving := matchedAt("B1", 0, geo.XY{X: 500, Y: 0}, true, 1, 300)
	driving.Light = 1
	stop1 := matchedAt("B1", 20, geo.XY{X: 505, Y: 0}, false, 2, 100)
	stop1.Light = 2
	stop2 := matchedAt("B1", 40, geo.XY{X: 506, Y: 0}, false, 2, 100)
	stop2.Light = 2
	part := mapmatch.Partition{
		mapmatch.Key{Light: 1, Approach: lights.NorthSouth}: {driving},
		mapmatch.Key{Light: 2, Approach: lights.NorthSouth}: {stop1, stop2},
	}
	idx, err := BuildStopIndex(part, DefaultStopExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Stops(mapmatch.Key{Light: 2, Approach: lights.NorthSouth}); len(got) != 0 {
		t.Fatalf("dwell counted as red-light stop: %+v", got)
	}
	if !idx.IsDwell("B1", 30) {
		t.Fatal("dwell interval not indexed")
	}
	if idx.IsDwell("B1", 100) || idx.IsDwell("B2", 30) {
		t.Fatal("IsDwell false positives")
	}
}

func TestBuildStopIndexKeepsRedLightStops(t *testing.T) {
	// Same-occupancy stationary run near the stop line: a red-light stop
	// attributed to the light of its records.
	var ms []mapmatch.Matched
	for i := 0; i < 4; i++ {
		m := matchedAt("B1", float64(i*20), geo.XY{X: float64(i), Y: 0}, true, 7, 50)
		m.Light = 7
		ms = append(ms, m)
	}
	part := mapmatch.Partition{
		mapmatch.Key{Light: 7, Approach: lights.NorthSouth}: ms,
	}
	idx, err := BuildStopIndex(part, DefaultStopExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	stops := idx.Stops(mapmatch.Key{Light: 7, Approach: lights.NorthSouth})
	if len(stops) != 1 || stops[0].Duration() != 60 || stops[0].Records != 4 {
		t.Fatalf("stops = %+v", stops)
	}
	if idx.IsDwell("B1", 30) {
		t.Fatal("red-light stop flagged as dwell")
	}
}

func TestBuildStopIndexStopSpanningPartitions(t *testing.T) {
	// A creeping queue run whose records straddle two partitions (the
	// taxi was first matched slightly differently): global extraction
	// stitches it into one run assigned to the final light.
	a := matchedAt("B1", 0, geo.XY{X: 0, Y: 0}, true, 1, 140)
	a.Light = 1
	b := matchedAt("B1", 20, geo.XY{X: 10, Y: 0}, true, 2, 130)
	b.Light = 2
	c := matchedAt("B1", 40, geo.XY{X: 20, Y: 0}, true, 2, 120)
	c.Light = 2
	part := mapmatch.Partition{
		mapmatch.Key{Light: 1, Approach: lights.NorthSouth}: {a},
		mapmatch.Key{Light: 2, Approach: lights.NorthSouth}: {b, c},
	}
	idx, err := BuildStopIndex(part, DefaultStopExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	stops := idx.Stops(mapmatch.Key{Light: 2, Approach: lights.NorthSouth})
	if len(stops) != 1 || stops[0].Records != 3 {
		t.Fatalf("stitched stops = %+v", stops)
	}
}

func TestBuildStopIndexValidation(t *testing.T) {
	if _, err := BuildStopIndex(nil, StopExtractConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestFilterDwellRecords(t *testing.T) {
	driving := matchedAt("B1", 0, geo.XY{X: -300, Y: 0}, true, 1, 300)
	d1 := matchedAt("B1", 20, geo.XY{X: 5, Y: 0}, false, 1, 100)
	d2 := matchedAt("B1", 40, geo.XY{X: 6, Y: 0}, false, 1, 100)
	after := matchedAt("B1", 120, geo.XY{X: 300, Y: 0}, false, 1, 60)
	part := mapmatch.Partition{
		mapmatch.Key{Light: 1, Approach: lights.NorthSouth}: {driving, d1, d2, after},
	}
	idx, err := BuildStopIndex(part, DefaultStopExtractConfig())
	if err != nil {
		t.Fatal(err)
	}
	kept := idx.FilterDwellRecords([]mapmatch.Matched{driving, d1, d2, after})
	if len(kept) != 2 {
		t.Fatalf("kept %d records, want 2 (dwell records removed)", len(kept))
	}
}
