package core

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"taxilight/internal/mapmatch"
)

// StopIndex holds the stationary runs of an entire trace, extracted from
// each taxi's full record timeline rather than per light. Global
// extraction matters for the occupancy lookback: the passenger flag flips
// while the taxi pulls over, i.e. on the record *before* the stationary
// run, and that record is often matched to a different light — a
// per-partition scan cannot see it and lets kerbside dwells masquerade as
// red-light stops.
//
// An index is rebuilt in place: build keeps the slices and maps that
// outlive it (see reuse for the exception), so the engine's per-round
// index allocates only when a round outgrows the last one. What only
// build needs it borrows (see stopScratch).
type StopIndex struct {
	// stops holds every approach's red-light stop candidates in one
	// array, approach by approach in keys order: stopsOf[i] is the range
	// of keys[i]'s, which are in plate-then-time order.
	stops   []StopEvent
	stopsOf [][2]int32
	// dwell holds the [start, end] interval of every run flagged as a
	// passenger stop, grouped by plate and chronological within one.
	// Records inside an interval are excluded from the frequency-domain
	// speed series. A plate finds its intervals by index: slot[id] is one
	// more than the bucket number the build gave plate id (0 when the
	// view does not hold it), and dwellOf[bucket] is the bucket's range of
	// dwell.
	dwell   [][2]float64
	slot    []int32
	dwellOf [][2]int32
	// byName resolves the exported, string-keyed queries. Only indexes
	// returned by BuildStopIndex carry it.
	byName map[string]uint32

	keys []mapmatch.Key // view keys in sortKeys order
	// pages holds the view's pages, key after key in keys order, so a
	// reference reaches its record in two loads; cleared after build.
	pages []*obsPage
}

// stopScratch is the memory that is live only inside build: the
// references, bucketed by plate — groups[i] owns refs[lo:hi] — one
// plate's runs and the view's red-light runs in plate-then-time order. It
// is the largest thing a build touches (eight bytes per observation of
// the view) and dead the moment build returns, so no index retains one: a
// build borrows the process-wide spare and hands it back.
type stopScratch struct {
	refs   []stopRef
	groups []plateGroup
	runs   []stopRun
	red    []stopRun
}

// spareStopScratch is the one idle stopScratch of the process. A build
// that finds it taken (another engine is mid-build) allocates its own, and
// of two handed back the larger stays.
var spareStopScratch atomic.Pointer[stopScratch]

func borrowStopScratch() *stopScratch {
	if ws := spareStopScratch.Swap(nil); ws != nil {
		return ws
	}
	return new(stopScratch)
}

func returnStopScratch(ws *stopScratch) {
	size := cap(ws.refs) // once swapped in, ws is the next borrower's
	if other := spareStopScratch.Swap(ws); other != nil && cap(other.refs) > size {
		spareStopScratch.CompareAndSwap(ws, other)
	}
}

// stopRef points at one observation of the view: key is its approach's
// index in keys, pos its slot in pages (see at). Ordering references
// instead of records moves 8 bytes at a time and leaves the view
// untouched; the time is read through the reference.
type stopRef struct {
	key, pos uint32
}

func (si *StopIndex) at(r stopRef) *obs {
	return &si.pages[r.pos>>pageShift][r.pos&pageMask]
}

// plateGroup is one plate's bucket of the references, refs[lo:hi].
type plateGroup struct {
	id     uint32
	lo, hi int32
}

// stopRun is one stationary run and the reference of its final record,
// whose approach and distance decide which light the run belongs to.
type stopRun struct {
	ev   StopEvent
	last stopRef
}

// BuildStopIndex scans every record in the partition, reassembles the
// per-plate timelines, extracts stationary runs and assigns each run to
// the light controlling the run's final record. Runs whose occupancy
// flag flips inside the run or on the lookback record are indexed as
// dwell intervals instead.
func BuildStopIndex(part mapmatch.Partition, cfg StopExtractConfig) (*StopIndex, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var rm roundMem
	plates := rm.load(part)
	idx := &StopIndex{byName: plates.ids}
	idx.build(rm.view, rm.names, cfg)
	return idx, nil
}

// build indexes the view, replacing whatever the index held. names
// resolves the plate ids of the view's observations.
func (si *StopIndex) build(view map[mapmatch.Key]obsView, names []string, cfg StopExtractConfig) {
	si.dwell = reuse(si.dwell, len(si.dwell))
	ws := borrowStopScratch()
	si.gather(ws, view, names)
	si.dwellOf = reuse(si.dwellOf, len(ws.groups))[:len(ws.groups)]
	si.stopsOf = reuse(si.stopsOf, len(si.keys))[:len(si.keys)]
	clear(si.dwellOf)
	clear(si.stopsOf)                   // each key's count of red-light runs, until placed
	red := reuse(ws.red, len(si.stops)) // sized by the last build's count
	for _, g := range ws.groups {
		ws.runs = si.appendRuns(ws.runs[:0], ws.refs[g.lo:g.hi], names[g.id], cfg)
		lo := len(si.dwell)
		for _, r := range ws.runs {
			if r.ev.OccupancyChanged {
				si.dwell = append(si.dwell, [2]float64{r.ev.Start, r.ev.End})
			} else if si.at(r.last).dist <= cfg.MaxStopDist {
				red = append(red, r)
				si.stopsOf[r.last.key][1]++
			}
		}
		if len(si.dwell) > lo {
			si.dwellOf[si.slot[g.id]-1] = [2]int32{int32(lo), int32(len(si.dwell))}
		}
	}
	// A stable counting sort on the run's key: each approach's stops keep
	// the plate-then-time order they were found in.
	var at int32
	for i, c := range si.stopsOf {
		si.stopsOf[i], at = [2]int32{at, at}, at+c[1]
	}
	si.stops = reuse(si.stops, len(red))[:len(red)]
	for _, r := range red {
		si.stops[si.stopsOf[r.last.key][1]] = r.ev
		si.stopsOf[r.last.key][1]++
	}
	// The spare outlives this engine: it keeps no plate name, which would
	// pin the scanner slab the name was carved from.
	clear(red)
	clear(ws.runs)
	ws.red = red
	clear(si.pages) // a built index keeps no reference into the view
	returnStopScratch(ws)
}

// gather references every observation of the view, bucketed by plate and
// ordered by (time, key, index) within a plate, and lists the buckets in
// plate-name order, the order stops are emitted in. It is a counting sort
// on the plate: plates are numbered as first seen (si.slot, indexed by
// plate id), counted, prefix-summed, and the references placed walking
// the keys in sortKeys order and each view from its start — so a bucket
// fills in (key, index) order, and the stable sort by time alone makes
// that (time, key, index): equal-time records of one plate on two
// approaches fall in key order, not as map iteration left them. A taxi's
// reports mostly reach a bucket already ascending (every view is
// time-sorted, and most taxis are seen on one approach at a time); such a
// bucket is not sorted at all.
func (si *StopIndex) gather(ws *stopScratch, view map[mapmatch.Key]obsView, names []string) {
	si.keys = si.keys[:0]
	for k := range view {
		si.keys = append(si.keys, k)
	}
	sortKeys(si.keys)
	si.pages = si.pages[:0]
	slot := reuse(si.slot, len(names))[:len(names)]
	clear(slot)
	groups := ws.groups[:0]
	total := 0
	for _, k := range si.keys {
		ms := view[k]
		si.pages = append(si.pages, ms.pages...)
		total += ms.n
		for j := range ms.pages {
			c := ms.chunk(j)
			for i := range c {
				id := c[i].id()
				if slot[id] == 0 {
					groups = append(groups, plateGroup{id: id})
					slot[id] = int32(len(groups))
				}
				groups[slot[id]-1].hi++ // the count, until the prefix sum below
			}
		}
	}
	groups = fit(groups) // a burst must not size the bucket list for good
	var at int32
	for i := range groups {
		n := groups[i].hi
		groups[i].lo, groups[i].hi = at, at // hi is the fill cursor now
		at += n
	}
	refs := reuse(ws.refs, total)[:total]
	pos := 0 // a view's records have consecutive slots in si.pages
	for ki, k := range si.keys {
		ms := view[k]
		pos += ms.off
		for j := range ms.pages {
			c := ms.chunk(j)
			for i := range c {
				g := &groups[slot[c[i].id()]-1]
				refs[g.hi] = stopRef{key: uint32(ki), pos: uint32(pos)}
				g.hi++
				pos++
			}
		}
		pos = (pos + pageMask) &^ pageMask // the next view starts on a page of its own
	}
	byTime := func(a, b stopRef) int { return cmp.Compare(si.at(a).t, si.at(b).t) }
	for _, g := range groups {
		if bucket := refs[g.lo:g.hi]; !slices.IsSortedFunc(bucket, byTime) {
			slices.SortStableFunc(bucket, byTime)
		}
	}
	slices.SortFunc(groups, func(a, b plateGroup) int { return strings.Compare(names[a.id], names[b.id]) })
	si.slot, ws.refs, ws.groups = slot, refs, groups
}

// appendRuns extracts the stationary runs of one plate's time-sorted
// references. A run is a maximal sequence of consecutive reports whose
// pairwise displacement stays within MaxDisplacement — pairwise rather
// than anchored, so taxis creeping forward as a queue discharges stay in
// one run — and whose gaps stay within MaxGap. A run is flagged as a
// passenger stop when the occupancy flag flips inside it or relative to
// the report just before it: the flip happens when the taxi pulls over,
// i.e. before the run's first report, so the lookback is what actually
// catches kerbside dwells.
func (si *StopIndex) appendRuns(dst []stopRun, refs []stopRef, plate string, cfg StopExtractConfig) []stopRun {
	for i := 0; i < len(refs); {
		first := si.at(refs[i])
		prev := first
		occChanged := false
		j := i + 1
		for ; j < len(refs); j++ {
			cur := si.at(refs[j])
			if cur.t-prev.t > cfg.MaxGap || cur.pos.Sub(prev.pos).Norm() > cfg.MaxDisplacement {
				break
			}
			if cur.occupied() != prev.occupied() {
				occChanged = true
			}
			prev = cur
		}
		if j-i < 2 {
			i++
			continue
		}
		if i > 0 {
			if before := si.at(refs[i-1]); first.t-before.t <= cfg.MaxGap && before.occupied() != first.occupied() {
				occChanged = true
			}
		}
		dst = append(dst, stopRun{
			ev: StopEvent{
				Plate:            plate,
				Start:            first.t,
				End:              prev.t,
				OccupancyChanged: occChanged,
				Records:          j - i,
			},
			last: refs[j-1],
		})
		i = j
	}
	return dst
}

// Stops returns the red-light stop candidates attributed to one signal
// approach, in deterministic order.
func (si *StopIndex) Stops(key mapmatch.Key) []StopEvent {
	if i, ok := slices.BinarySearchFunc(si.keys, key, compareKeys); ok {
		return si.stops[si.stopsOf[i][0]:si.stopsOf[i][1]:si.stopsOf[i][1]]
	}
	return nil
}

// IsDwell reports whether the record of the given plate at time t falls
// inside a flagged passenger-stop interval.
func (si *StopIndex) IsDwell(plate string, t float64) bool {
	id, ok := si.byName[plate]
	return ok && si.isDwell(id, t)
}

// isDwell answers IsDwell for a plate id of the indexed view.
func (si *StopIndex) isDwell(id uint32, t float64) bool {
	s := si.slot[id]
	if s == 0 {
		return false
	}
	r := si.dwellOf[s-1]
	iv := si.dwell[r[0]:r[1]]
	i := sort.Search(len(iv), func(i int) bool { return iv[i][1] >= t })
	return i < len(iv) && iv[i][0] <= t
}

// FilterDwellRecords returns the matched records of ms that do not fall
// inside a flagged dwell interval.
func (si *StopIndex) FilterDwellRecords(ms []mapmatch.Matched) []mapmatch.Matched {
	out := make([]mapmatch.Matched, 0, len(ms))
	for _, m := range ms {
		if !si.IsDwell(m.Plate, m.T) {
			out = append(out, m)
		}
	}
	return out
}
