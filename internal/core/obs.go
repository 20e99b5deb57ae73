package core

import (
	"strings"

	"taxilight/internal/geo"
	"taxilight/internal/mapmatch"
)

// obs is the engine's compact observation: exactly what stop extraction
// and identification read from a matched record — 56 bytes against the
// 184 of a mapmatch.Matched, and no reference to the source CSV line. A
// record is converted once, where it enters the package (Engine.Ingest,
// RunPipeline, BuildStopIndex); the key buffers, the round view, the stop
// index and identifyOne all work on this one type.
type obs struct {
	plate    *plate
	t        float64 // stream seconds
	speed    float64 // km/h
	dist     float64 // metres along the road to the stop line
	pos      geo.XY  // snapped planar position
	occupied bool
}

// plate is an interned taxi identity. name and id never change after
// interning, so a round may read them outside the engine lock; refs is
// the number of buffered observations holding the plate and belongs to
// the table's owner.
type plate struct {
	name string
	id   uint64 // unique per table, never reused: the stop index sorts on it
	refs int
}

// plateTable interns plate strings. The engine's table is guarded by
// e.mu and reference-counted, so a hostile feed minting plates holds
// memory only while their records are buffered; the batch entry points
// build a throwaway table per call and never release.
type plateTable struct {
	byName map[string]*plate
	nextID uint64
	peak   int // largest len(byName) since the last compact
}

func newPlateTable() plateTable {
	return plateTable{byName: map[string]*plate{}}
}

// intern returns the plate for name, cloning the string on first sight
// so the entry does not pin the line it was sliced from.
func (pt *plateTable) intern(name string) *plate {
	if p := pt.byName[name]; p != nil {
		return p
	}
	pt.nextID++
	p := &plate{name: strings.Clone(name), id: pt.nextID}
	pt.byName[p.name] = p
	if n := len(pt.byName); n > pt.peak {
		pt.peak = n
	}
	return p
}

// observe converts one matched record.
func (pt *plateTable) observe(m *mapmatch.Matched) obs {
	return obs{
		plate:    pt.intern(m.Rec.Plate),
		t:        m.T,
		speed:    m.Rec.SpeedKMH,
		dist:     m.DistToStop,
		pos:      m.Snapped,
		occupied: m.Rec.Occupied,
	}
}

// release drops the references the given buffered observations hold and
// forgets plates nothing references any more.
func (pt *plateTable) release(dropped []obs) {
	for i := range dropped {
		p := dropped[i].plate
		if p.refs--; p.refs == 0 {
			delete(pt.byName, p.name)
		}
	}
}

// compact rebuilds the map once it has shrunk to under a quarter of its
// peak: Go maps keep their buckets across deletes, so without this a
// burst of minted plates would size the table for good.
func (pt *plateTable) compact() {
	n := len(pt.byName)
	if pt.peak < 1024 || n*4 >= pt.peak {
		return
	}
	fresh := make(map[string]*plate, n)
	for name, p := range pt.byName {
		fresh[name] = p
	}
	pt.byName = fresh
	pt.peak = n
}
