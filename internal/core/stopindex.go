package core

import (
	"cmp"
	"slices"
	"sort"
	"strings"

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
// An index is rebuilt in place: build keeps the slices and maps it grew
// (see reuse for the exception), so the engine's per-round index
// allocates only when a round outgrows the last one.
type StopIndex struct {
	// stops holds each approach's red-light stop candidates. Slices are
	// truncated, not dropped, between builds, so an approach without
	// stops may map to an empty slice.
	stops map[mapmatch.Key][]StopEvent
	// dwell holds the [start, end] interval of every run flagged as a
	// passenger stop, grouped by plate and chronological within one;
	// dwellOf maps a plate to its range. Records inside an interval are
	// excluded from the frequency-domain speed series.
	dwell   [][2]float64
	dwellOf map[*plate][2]int
	// byName resolves the exported, string-keyed queries. Only indexes
	// returned by BuildStopIndex carry it.
	byName map[string]*plate

	// Builder working memory. refs is bucketed by plate: groups[i] owns
	// refs[lo:hi]. While gather runs, a plate finds its bucket through
	// plate.slot, which is valid when plate.stamp equals this build's
	// stamp — state of the building round, like refs, written only by the
	// one goroutine that builds this index (in an Engine: under estMu).
	keys   []mapmatch.Key // view keys in sortKeys order
	recs   [][]obs        // recs[i] is the view of keys[i]
	refs   []stopRef
	groups []plateGroup
	runs   []stopRun
	stamp  uint64 // number of builds so far
}

// stopRef points at one observation of the view: recs[key][idx]. Ordering
// references instead of records moves 16 bytes at a time and leaves the
// view untouched.
type stopRef struct {
	t        float64
	key, idx uint32
}

// plateGroup is one plate's bucket of the references, refs[lo:hi].
type plateGroup struct {
	p      *plate
	lo, hi int
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
	idx := &StopIndex{byName: plates.byName}
	idx.build(rm.view, cfg)
	return idx, nil
}

// build indexes the view, replacing whatever the index held.
func (si *StopIndex) build(view map[mapmatch.Key][]obs, cfg StopExtractConfig) {
	if si.stops == nil {
		si.stops = map[mapmatch.Key][]StopEvent{}
		si.dwellOf = map[*plate][2]int{}
	}
	for k, evs := range si.stops {
		if oversized(cap(evs), len(evs)) {
			delete(si.stops, k)
		} else {
			si.stops[k] = evs[:0]
		}
	}
	si.dwell = reuse(si.dwell, len(si.dwell))
	if len(si.dwellOf) > 1024 {
		// clear would keep a burst's buckets for good.
		si.dwellOf = map[*plate][2]int{}
	} else {
		clear(si.dwellOf)
	}
	si.gather(view)
	for _, g := range si.groups {
		si.runs = appendRuns(si.runs[:0], si.refs[g.lo:g.hi], si.recs, cfg)
		lo := len(si.dwell)
		for _, r := range si.runs {
			if r.ev.OccupancyChanged {
				si.dwell = append(si.dwell, [2]float64{r.ev.Start, r.ev.End})
			} else if si.recs[r.last.key][r.last.idx].dist <= cfg.MaxStopDist {
				k := si.keys[r.last.key]
				si.stops[k] = append(si.stops[k], r.ev)
			}
		}
		if len(si.dwell) > lo {
			si.dwellOf[g.p] = [2]int{lo, len(si.dwell)}
		}
	}
	clear(si.recs) // a built index keeps no reference into the view
}

// gather references every observation of the view, bucketed by plate and
// ordered by (time, key, index) within a plate, and lists the buckets in
// plate-name order, the order stops are emitted in. It is a counting sort
// on the plate: plates are numbered as first seen, counted, prefix-summed,
// and the references placed walking the keys in sortKeys order and each
// view from its start — so a bucket fills in (key, index) order, and the
// stable sort by time alone makes that (time, key, index): equal-time
// records of one plate on two approaches fall in key order, not as map
// iteration left them. A taxi's reports mostly reach a bucket already
// ascending (every view is time-sorted, and most taxis are seen on one
// approach at a time); such a bucket is not sorted at all.
func (si *StopIndex) gather(view map[mapmatch.Key][]obs) {
	si.keys = si.keys[:0]
	for k := range view {
		si.keys = append(si.keys, k)
	}
	sortKeys(si.keys)
	si.recs = si.recs[:0]
	si.stamp++
	groups := si.groups[:0]
	total := 0
	for _, k := range si.keys {
		ms := view[k]
		si.recs = append(si.recs, ms)
		total += len(ms)
		for i := range ms {
			p := ms[i].plate
			if p.stamp != si.stamp {
				p.stamp, p.slot = si.stamp, len(groups)
				groups = append(groups, plateGroup{p: p})
			}
			groups[p.slot].hi++ // the count, until the prefix sum below
		}
	}
	if oversized(cap(groups), len(groups)) {
		// A burst must not size the bucket list for good, nor pin its plates.
		groups = append(make([]plateGroup, 0, len(groups)+len(groups)/2), groups...)
	}
	at := 0
	for i := range groups {
		n := groups[i].hi
		groups[i].lo, groups[i].hi = at, at // hi is the fill cursor now
		at += n
	}
	refs := reuse(si.refs, total)[:total]
	for ki, ms := range si.recs {
		for i := range ms {
			g := &groups[ms[i].plate.slot]
			refs[g.hi] = stopRef{t: ms[i].t, key: uint32(ki), idx: uint32(i)}
			g.hi++
		}
	}
	byTime := func(a, b stopRef) int { return cmp.Compare(a.t, b.t) }
	for _, g := range groups {
		if bucket := refs[g.lo:g.hi]; !slices.IsSortedFunc(bucket, byTime) {
			slices.SortStableFunc(bucket, byTime)
		}
	}
	slices.SortFunc(groups, func(a, b plateGroup) int { return strings.Compare(a.p.name, b.p.name) })
	si.refs, si.groups = refs, groups
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
func appendRuns(dst []stopRun, refs []stopRef, recs [][]obs, cfg StopExtractConfig) []stopRun {
	at := func(r stopRef) *obs { return &recs[r.key][r.idx] }
	for i := 0; i < len(refs); {
		first := at(refs[i])
		prev := first
		occChanged := false
		j := i + 1
		for ; j < len(refs); j++ {
			cur := at(refs[j])
			if cur.t-prev.t > cfg.MaxGap || cur.pos.Sub(prev.pos).Norm() > cfg.MaxDisplacement {
				break
			}
			if cur.occupied != prev.occupied {
				occChanged = true
			}
			prev = cur
		}
		if j-i < 2 {
			i++
			continue
		}
		if i > 0 {
			if before := at(refs[i-1]); first.t-before.t <= cfg.MaxGap && before.occupied != first.occupied {
				occChanged = true
			}
		}
		dst = append(dst, stopRun{
			ev: StopEvent{
				Plate:            first.plate.name,
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
func (si *StopIndex) Stops(key mapmatch.Key) []StopEvent { return si.stops[key] }

// IsDwell reports whether the record of the given plate at time t falls
// inside a flagged passenger-stop interval.
func (si *StopIndex) IsDwell(plate string, t float64) bool {
	p := si.byName[plate]
	return p != nil && si.isDwell(p, t)
}

func (si *StopIndex) isDwell(p *plate, t float64) bool {
	r, ok := si.dwellOf[p]
	if !ok {
		return false
	}
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
