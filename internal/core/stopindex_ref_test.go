package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

// refStopIndex is the stop index as it was built before the index sorted
// references: every record copied into a per-plate slice, each slice
// stable-sorted by time, runs extracted from the copies. It is kept as
// the oracle the builder is property-tested against. The one departure
// from the original is that records are gathered in sortKeys order, not
// map order, so equal-time ties have a defined answer to compare with.
type refStopIndex struct {
	stops map[mapmatch.Key][]StopEvent
	dwell map[string][][2]float64
}

func buildRefStopIndex(part mapmatch.Partition, cfg StopExtractConfig) *refStopIndex {
	keys := make([]mapmatch.Key, 0, len(part))
	for k := range part {
		keys = append(keys, k)
	}
	sortKeys(keys)
	byPlate := make(map[string][]mapmatch.Matched)
	for _, k := range keys {
		for _, m := range part[k] {
			byPlate[m.Plate] = append(byPlate[m.Plate], m)
		}
	}
	plates := make([]string, 0, len(byPlate))
	for p := range byPlate {
		plates = append(plates, p)
	}
	sort.Strings(plates)
	idx := &refStopIndex{
		stops: make(map[mapmatch.Key][]StopEvent),
		dwell: make(map[string][][2]float64),
	}
	for _, plate := range plates {
		rs := byPlate[plate]
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].T < rs[j].T })
		i := 0
		for i < len(rs) {
			j := i + 1
			occChanged := false
			for j < len(rs) {
				if rs[j].T-rs[j-1].T > cfg.MaxGap {
					break
				}
				if rs[j].Snapped.Sub(rs[j-1].Snapped).Norm() > cfg.MaxDisplacement {
					break
				}
				if rs[j].Occupied != rs[j-1].Occupied {
					occChanged = true
				}
				j++
			}
			if j-i >= 2 {
				if i > 0 && rs[i].T-rs[i-1].T <= cfg.MaxGap &&
					rs[i-1].Occupied != rs[i].Occupied {
					occChanged = true
				}
				ev := StopEvent{
					Plate:            plate,
					Start:            rs[i].T,
					End:              rs[j-1].T,
					OccupancyChanged: occChanged,
					Records:          j - i,
				}
				last := rs[j-1]
				if occChanged {
					idx.dwell[plate] = append(idx.dwell[plate], [2]float64{ev.Start, ev.End})
				} else if last.DistToStop <= cfg.MaxStopDist {
					key := mapmatch.Key{Light: last.Light, Approach: last.Approach}
					idx.stops[key] = append(idx.stops[key], ev)
				}
			}
			if j == i+1 {
				i++
			} else {
				i = j
			}
		}
	}
	return idx
}

func (ri *refStopIndex) isDwell(plate string, t float64) bool {
	iv := ri.dwell[plate]
	i := sort.Search(len(iv), func(i int) bool { return iv[i][1] >= t })
	return i < len(iv) && iv[i][0] <= t
}

// checkAgainstRef compares Stops for every key and IsDwell for every
// record (and just outside every record) between the builder and the
// reference.
func checkAgainstRef(t *testing.T, part mapmatch.Partition, cfg StopExtractConfig) {
	t.Helper()
	idx, err := BuildStopIndex(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := buildRefStopIndex(part, cfg)
	stops := 0
	for k, ms := range part {
		got, want := idx.Stops(k), ref.stops[k]
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("Stops(%v):\n got %+v\nwant %+v", k, got, want)
		}
		stops += len(want)
		for _, m := range ms {
			for _, at := range []float64{m.T, m.T - 0.5, m.T + 0.5} {
				if got, want := idx.IsDwell(m.Plate, at), ref.isDwell(m.Plate, at); got != want {
					t.Fatalf("IsDwell(%s, %v) = %v, reference %v", m.Plate, at, got, want)
				}
			}
		}
	}
	for k := range ref.stops {
		if _, ok := part[k]; !ok {
			t.Fatalf("reference attributes stops to %v, which is not a partition key", k)
		}
	}
	if stops == 0 && len(ref.dwell) == 0 {
		t.Fatal("input exercises nothing: no stop and no dwell")
	}
}

// randomPartition scatters the timelines of a few taxis over a few
// approaches: stationary stretches, creeping queues, drives, long gaps,
// occupancy flips, out-of-order slices and — on purpose — reports of one
// taxi that share a timestamp on two approaches.
func randomPartition(rng *rand.Rand) mapmatch.Partition {
	nKeys := 2 + rng.Intn(5)
	keys := make([]mapmatch.Key, nKeys)
	for i := range keys {
		keys[i] = mapmatch.Key{Light: roadnet.NodeID(1 + i/2), Approach: lights.Approach(i % 2)}
	}
	part := mapmatch.Partition{}
	for p, nPlates := 0, 1+rng.Intn(12); p < nPlates; p++ {
		plate := fmt.Sprintf("P%02d", rng.Intn(20)) // collisions merge timelines
		tm := float64(rng.Intn(50))
		pos := geo.XY{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		occupied := rng.Intn(2) == 0
		k := keys[rng.Intn(nKeys)]
		for n, steps := 0, 3+rng.Intn(40); n < steps; n++ {
			switch rng.Intn(10) {
			case 0: // long gap
				tm += 130 + float64(rng.Intn(100))
			case 1: // same timestamp again
			default:
				tm += float64(5 + rng.Intn(40))
			}
			switch rng.Intn(4) {
			case 0: // drive off
				pos = pos.Add(geo.XY{X: 30 + rng.Float64()*300, Y: rng.Float64() * 50})
			case 1: // creep
				pos = pos.Add(geo.XY{X: rng.Float64() * 20})
			}
			if rng.Intn(8) == 0 {
				occupied = !occupied
			}
			if rng.Intn(4) == 0 {
				k = keys[rng.Intn(nKeys)]
			}
			part[k] = append(part[k], mapmatch.Matched{
				Plate: plate, Occupied: occupied,
				Light:      k.Light,
				Approach:   k.Approach,
				T:          tm,
				Snapped:    pos,
				DistToStop: rng.Float64() * 300,
			})
		}
	}
	for k, ms := range part {
		if rng.Intn(3) > 0 { // most partitions honour the time-sorted contract
			sort.SliceStable(ms, func(i, j int) bool { return ms[i].T < ms[j].T })
			part[k] = ms
		}
	}
	return part
}

// crossingPartition builds what the bucketed builder has to get right and
// randomPartition only meets by chance. Every taxi queues, creeps and
// drives through a sequence of approaches, time-sorted within each: some
// walk the keys in key order, so their bucket fills already ascending
// (the builder skips the sort); some walk them against key order, so it
// fills descending; and some report the same second on two approaches,
// with the later key first or second, where only (time, key, index) order
// gives the reference's answer.
func crossingPartition(rng *rand.Rand) mapmatch.Partition {
	nKeys := 3 + rng.Intn(4)
	keys := make([]mapmatch.Key, nKeys)
	for i := range keys {
		keys[i] = mapmatch.Key{Light: roadnet.NodeID(1 + i/2), Approach: lights.Approach(i % 2)}
	}
	part := mapmatch.Partition{}
	for p, nPlates := 0, 2+rng.Intn(8); p < nPlates; p++ {
		plate := fmt.Sprintf("X%02d", p)
		walk := rng.Perm(nKeys)[:1+rng.Intn(nKeys)]
		switch p % 3 {
		case 0:
			sort.Ints(walk)
		case 1:
			sort.Sort(sort.Reverse(sort.IntSlice(walk)))
		}
		tm := float64(rng.Intn(50))
		pos := geo.XY{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		occupied := rng.Intn(2) == 0
		emit := func(k mapmatch.Key) {
			part[k] = append(part[k], mapmatch.Matched{
				Plate: plate, Occupied: occupied, Light: k.Light, Approach: k.Approach,
				T: tm, Snapped: pos, DistToStop: rng.Float64() * 300,
			})
		}
		for wi, ki := range walk {
			for n, steps := 0, 2+rng.Intn(6); n < steps; n++ {
				tm += float64(5 + rng.Intn(40))
				if rng.Intn(3) == 0 {
					pos = pos.Add(geo.XY{X: 30 + rng.Float64()*300})
				} else {
					pos = pos.Add(geo.XY{X: rng.Float64() * 10})
				}
				if rng.Intn(10) == 0 {
					occupied = !occupied
				}
				emit(keys[ki])
			}
			if p%3 == 2 && wi+1 < len(walk) {
				emit(keys[walk[wi+1]]) // the same second, already on the next approach
			}
		}
	}
	for _, ms := range part {
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].T < ms[j].T })
	}
	return part
}

// bucketShapes reports what a partition asks of the builder: how many
// plates' references, gathered in (key, index) order, are already
// ascending in time, how many are not, and how many reports share their
// plate and time with a report on another approach.
func bucketShapes(part mapmatch.Partition) (ascending, unsorted, ties int) {
	keys := make([]mapmatch.Key, 0, len(part))
	for k := range part {
		keys = append(keys, k)
	}
	sortKeys(keys)
	type plateTime struct {
		plate string
		t     float64
	}
	last := map[string]float64{}
	sorted := map[string]bool{}
	at := map[plateTime]mapmatch.Key{}
	for _, k := range keys {
		for _, m := range part[k] {
			if prev, ok := last[m.Plate]; !ok {
				sorted[m.Plate] = true
			} else if m.T < prev {
				sorted[m.Plate] = false
			}
			last[m.Plate] = m.T
			if other, ok := at[plateTime{m.Plate, m.T}]; ok && other != k {
				ties++
			}
			at[plateTime{m.Plate, m.T}] = k
		}
	}
	for _, ok := range sorted {
		if ok {
			ascending++
		} else {
			unsorted++
		}
	}
	return ascending, unsorted, ties
}

func TestStopIndexMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := DefaultStopExtractConfig()
	var ascending, unsorted, ties int
	for n := 0; n < 400; n++ {
		part := randomPartition(rng)
		if n >= 300 {
			part = crossingPartition(rng)
		}
		ref := buildRefStopIndex(part, cfg)
		if len(ref.stops) == 0 && len(ref.dwell) == 0 {
			continue
		}
		a, u, e := bucketShapes(part)
		ascending, unsorted, ties = ascending+a, unsorted+u, ties+e
		checkAgainstRef(t, part, cfg)
	}
	if ascending < 100 || unsorted < 100 || ties < 100 {
		t.Fatalf("inputs exercise too little: %d plates already ascending, %d to sort, %d equal-time pairs across lights",
			ascending, unsorted, ties)
	}
}

func TestStopIndexMatchesReferenceOnTape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated tape")
	}
	_, _, matched := realtimeFixture(t, 1800)
	part := mapmatch.Partition{}
	for _, m := range matched {
		k := mapmatch.Key{Light: m.Light, Approach: m.Approach}
		part[k] = append(part[k], m)
	}
	checkAgainstRef(t, part, DefaultStopExtractConfig())
}

// TestBuildStopIndexTieOrderDeterministic pins the tie-break of two
// reports of one taxi that share a timestamp on different approaches: the
// run's last record decides which light gets the stop, so an order left
// to map iteration made the index differ from build to build.
func TestBuildStopIndexTieOrderDeterministic(t *testing.T) {
	near := mapmatch.Key{Light: 1, Approach: lights.NorthSouth}
	far := mapmatch.Key{Light: 2, Approach: lights.EastWest}
	rec := func(k mapmatch.Key, tm, x, dist float64) mapmatch.Matched {
		return mapmatch.Matched{
			Plate: "B1", Light: k.Light, Approach: k.Approach,
			T: tm, Snapped: geo.XY{X: x}, DistToStop: dist,
		}
	}
	part := mapmatch.Partition{
		near: {rec(near, 0, 0, 40), rec(near, 20, 1, 40)},
		far:  {rec(far, 20, 2, 500)}, // same taxi, same second, beyond MaxStopDist
	}
	type outcome struct {
		Near, Far []StopEvent
		Dwell     bool
	}
	build := func() outcome {
		idx, err := BuildStopIndex(part, DefaultStopExtractConfig())
		if err != nil {
			t.Fatal(err)
		}
		return outcome{idx.Stops(near), idx.Stops(far), idx.IsDwell("B1", 20)}
	}
	first := build()
	// Keys gather in sortKeys order, so the far record is the run's last
	// and the run is dropped as too far from its stop line.
	if len(first.Near) != 0 || len(first.Far) != 0 || first.Dwell {
		t.Fatalf("tie broken against key order: %+v", first)
	}
	for n := 1; n < 50; n++ {
		if got := build(); !reflect.DeepEqual(got, first) {
			t.Fatalf("build %d differs:\n got %+v\nwant %+v", n, got, first)
		}
	}
}
