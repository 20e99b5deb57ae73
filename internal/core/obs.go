package core

import (
	"strings"

	"taxilight/internal/geo"
	"taxilight/internal/mapmatch"
)

// obs is the engine's compact observation: exactly what stop extraction
// and identification read from a matched record — 56 bytes against the
// 88 of a mapmatch.Matched. A record is converted once, where it enters
// the package (Engine.Ingest, RunPipeline, BuildStopIndex); the key
// buffers, the round view, the stop index and identifyOne all work on
// this one type.
type obs struct {
	plate    *plate
	t        float64 // stream seconds
	speed    float64 // km/h
	dist     float64 // metres along the road to the stop line
	pos      geo.XY  // snapped planar position
	occupied bool
}

// plate is an interned taxi identity. name never changes after interning
// and a plate is never recycled for another name, so a round may read it
// outside the engine lock; refs is the number of buffered observations
// holding the plate and belongs to the table's owner. stamp and slot
// belong to the round instead: the stop index numbers the plates of its
// view through them (see StopIndex.gather), so they are written only by
// the goroutine building that index — under estMu in an Engine — and a
// table's plates are never indexed by two StopIndexes.
type plate struct {
	name  string
	refs  int
	stamp uint64 // the StopIndex build that last numbered this plate
	slot  int    // its bucket in that build
}

// plateTable interns plate strings. The engine's table is guarded by
// e.mu and reference-counted through hold and release; the batch entry
// points build a throwaway table per call and do neither.
//
// One rule bounds it: an entry nothing references stays in the map — a
// taxi that leaves the window is usually back within the hour, and
// finding it again costs no allocation — until such dead entries
// outnumber the live ones, and then the map is rebuilt from the live ones
// alone. A feed that mints plates therefore holds at most twice its
// buffered plates, the map's buckets go with the rebuild, and an engine
// with nothing buffered has an empty table.
type plateTable struct {
	byName map[string]*plate
	live   int // entries with refs > 0
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
	p := &plate{name: strings.Clone(name)}
	pt.byName[p.name] = p
	return p
}

// observe converts one matched record.
func (pt *plateTable) observe(m *mapmatch.Matched) obs {
	return obs{
		plate:    pt.intern(m.Plate),
		t:        m.T,
		speed:    m.SpeedKMH,
		dist:     m.DistToStop,
		pos:      m.Snapped,
		occupied: m.Occupied,
	}
}

// hold counts one more buffered observation of p.
func (pt *plateTable) hold(p *plate) {
	if p.refs == 0 {
		pt.live++
	}
	p.refs++
}

// release drops the references the given buffered observations hold, and
// rebuilds the map without its dead entries once they outnumber the live
// ones.
func (pt *plateTable) release(dropped []obs) {
	for i := range dropped {
		p := dropped[i].plate
		if p.refs--; p.refs == 0 {
			pt.live--
		}
	}
	if len(pt.byName) <= 2*pt.live {
		return
	}
	fresh := make(map[string]*plate, pt.live)
	for name, p := range pt.byName {
		if p.refs > 0 {
			fresh[name] = p
		}
	}
	pt.byName = fresh
}
