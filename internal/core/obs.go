package core

import (
	"taxilight/internal/geo"
	"taxilight/internal/mapmatch"
)

// obs is the engine's compact observation: exactly what stop extraction
// and identification read from a matched record — 48 bytes and no
// pointer, against the 88 of a mapmatch.Matched, so a key buffer's pages
// are memory the collector never scans. A record is converted once, where
// it enters the package (Engine.Ingest, RunPipeline, BuildStopIndex); the
// key buffers, the round view, the stop index and identifyOne all work on
// this one type, through an obsView.
type obs struct {
	t     float64 // stream seconds
	speed float64 // km/h
	dist  float64 // metres along the road to the stop line
	pos   geo.XY  // snapped planar position
	plate uint32  // plate id (see plateTable); occupiedBit set when hired
}

// occupiedBit is the passenger flag, carried in the top bit of obs.plate.
const occupiedBit = 1 << 31

func (o *obs) id() uint32     { return o.plate &^ occupiedBit }
func (o *obs) occupied() bool { return o.plate&occupiedBit != 0 }

// Observations are kept in fixed pages of pageLen: 6 KB, one size class
// of the allocator. A page holds no pointer, so the collector never scans
// one.
const (
	pageShift = 7
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1
)

type obsPage [pageLen]obs

// obsView is a run of n observations laid out in pages, starting at slot
// off of pages[0]: observation i is at(i). A key buffer is one (see
// keyBuffer), and so is every window a round reads.
type obsView struct {
	pages []*obsPage
	off   int
	n     int
}

func (v obsView) at(i int) *obs {
	i += v.off
	return &v.pages[i>>pageShift][i&pageMask]
}

// chunk returns the observations of v on its j-th page, for the loops
// that walk a whole view.
func (v obsView) chunk(j int) []obs {
	lo, hi := 0, pageLen
	if j == 0 {
		lo = v.off
	}
	if j == len(v.pages)-1 {
		hi = (v.off+v.n-1)&pageMask + 1
	}
	return v.pages[j][lo:hi]
}

// slice returns observations [lo, hi) of v. Its page list ends at the page
// of its last observation and has no room past it, so appending to v's
// list never writes into the view's.
func (v obsView) slice(lo, hi int) obsView {
	if lo == hi {
		return obsView{}
	}
	first, end := (v.off+lo)>>pageShift, (v.off+hi-1)>>pageShift+1
	return obsView{pages: v.pages[first:end:end], off: (v.off + lo) & pageMask, n: hi - lo}
}

// plateTable interns plate strings as small numbers: ids[name] is the id,
// names[id] the name, refs[id] the number of buffered observations that
// carry it. The engine's table is guarded by e.mu; the batch entry points
// build a throwaway table per call and never release.
//
// An id nothing references keeps its name — a taxi that leaves the window
// is usually back within the hour, and finding it again costs no
// allocation — until such dead ids outnumber the live ones; compact then
// frees them all. One rule, which belongs beside the aliasing invariant
// (see Engine), makes ids safe to read outside e.mu: **an id is freed
// only under estMu.** release, which overflow eviction reaches from
// Ingest while a round may be reading the evicted records, only
// decrements; compact runs from trimLocked alone, after the round. intern
// may hand out ids freed earlier — no view holds one — and may append to
// names, which writes past the length a round saw or into a new array. A
// round therefore reads names through the slice header taken in
// snapshotLocked, and no name it can reach changes under it.
//
// A feed that mints plates holds at most twice its buffered plates by
// name; names and refs are as long as the highest id still held, and an
// engine with nothing buffered has an empty table.
type plateTable struct {
	ids   map[string]uint32
	names []string
	refs  []int32
	free  []uint32 // freed ids, lowest last
	live  int      // ids with refs > 0
}

func newPlateTable() plateTable {
	return plateTable{ids: map[string]uint32{}}
}

// intern returns the id of name. The table keeps name itself: a plate is
// copied once, where it enters the process (see Engine.Ingest).
func (pt *plateTable) intern(name string) uint32 {
	if id, ok := pt.ids[name]; ok {
		return id
	}
	var id uint32
	if n := len(pt.free); n > 0 {
		id, pt.free = pt.free[n-1], pt.free[:n-1]
		pt.names[id] = name
	} else {
		id = uint32(len(pt.names))
		pt.names = append(pt.names, name)
		pt.refs = append(pt.refs, 0)
	}
	pt.ids[name] = id
	return id
}

// observe converts one matched record.
func (pt *plateTable) observe(m *mapmatch.Matched) obs {
	o := obs{
		t:     m.T,
		speed: m.SpeedKMH,
		dist:  m.DistToStop,
		pos:   m.Snapped,
		plate: pt.intern(m.Plate),
	}
	if m.Occupied {
		o.plate |= occupiedBit
	}
	return o
}

// hold counts one more buffered observation of id.
func (pt *plateTable) hold(id uint32) {
	if pt.refs[id] == 0 {
		pt.live++
	}
	pt.refs[id]++
}

// release drops the reference one dropped observation of id held. It frees
// nothing: a round may still be reading the observation.
func (pt *plateTable) release(id uint32) {
	if pt.refs[id]--; pt.refs[id] == 0 {
		pt.live--
	}
}

// compact frees every dead id once they outnumber the live ones: the name
// map is rebuilt from the live ids alone (its buckets go with it), names
// and refs are cut back to the highest live id, and the holes below it
// become the free list. The caller holds estMu.
func (pt *plateTable) compact() {
	if len(pt.ids) <= 2*pt.live {
		return
	}
	n := len(pt.refs)
	for n > 0 && pt.refs[n-1] == 0 {
		n--
	}
	clear(pt.names[n:])
	pt.names, pt.refs = fit(pt.names[:n]), fit(pt.refs[:n])
	pt.ids = make(map[string]uint32, pt.live)
	pt.free = reuse(pt.free, n-pt.live)
	for id := n - 1; id >= 0; id-- {
		if pt.refs[id] > 0 {
			pt.ids[pt.names[id]] = uint32(id)
		} else {
			pt.names[id] = ""
			pt.free = append(pt.free, uint32(id))
		}
	}
}
