// Package routesvc is the online routing subsystem: it serves
// light-aware routes over a road network using *live* schedule estimates
// from the realtime engine — the paper's §IX payoff (bypassing red
// lights cuts travel time ~15%) turned into a queryable endpoint.
//
// Routing is time-dependent earliest-arrival A*: labels are arrival
// times, edge traversal adds free-flow drive time plus the predicted red
// wait at the entered intersection, and the heuristic is the free-flow
// time on the straight-line distance to the destination (admissible and
// consistent, because no segment is faster than the network's maximum
// speed and waits are non-negative). Waits are FIFO — an estimate is a
// fixed-cycle schedule, so arriving earlier never yields a later
// departure — which makes label-setting A* exact.
//
// Predictions are resolved through a PredictionSource and memoised in a
// version-keyed cache: the source's Epoch moves whenever engine content
// may have changed (estimation round, prime, restore), and every Plan
// runs against the epoch it observed at entry. Repeated queries between
// rounds therefore never re-touch engine state. Keys that are stale,
// quarantined or unestimated fall back to free-flow traversal and mark
// the answer Degraded — a missing estimate costs accuracy, never a 500.
package routesvc

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/metrics"
	"taxilight/internal/roadnet"
)

// PredictionSource resolves one signalised (light, approach) key to its
// live estimate. Implementations are the server's engine shards or, in
// cluster mode, a local-plus-peer merge.
type PredictionSource interface {
	// Predict returns the key's estimate, its serving health label (after
	// any cluster override) and whether an estimate exists at all.
	Predict(k mapmatch.Key) (core.Estimate, string, bool)
	// Epoch is a counter that moves whenever previously returned
	// predictions may be outdated. Cached predictions from older epochs
	// are discarded.
	Epoch() uint64
	// Now is the stream clock queries default their departure time to.
	Now() float64
}

// Service answers route queries over one road network.
type Service struct {
	net      *roadnet.Network
	src      PredictionSource
	maxSpeed float64 // fastest SpeedLimit in the network, for the heuristic

	cache predCache
	pool  sync.Pool

	met serviceMetrics
}

// New builds a routing service over net, resolving waits through src.
func New(net *roadnet.Network, src PredictionSource) (*Service, error) {
	if net == nil || net.NumNodes() == 0 {
		return nil, errors.New("routesvc: nil or empty network")
	}
	if src == nil {
		return nil, errors.New("routesvc: nil prediction source")
	}
	maxSpeed := 0.0
	for _, seg := range net.Segments() {
		if seg.SpeedLimit > maxSpeed {
			maxSpeed = seg.SpeedLimit
		}
	}
	if maxSpeed <= 0 {
		return nil, errors.New("routesvc: network has no positive-speed segments")
	}
	s := &Service{net: net, src: src, maxSpeed: maxSpeed}
	s.met.expandedNodes = metrics.NewHistogram(8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)
	s.cache.entries = map[mapmatch.Key]predEntry{}
	return s, nil
}

// Now returns the prediction source's stream clock — the default
// departure time for queries that omit one.
func (s *Service) Now() float64 { return s.src.Now() }

// SegmentLength returns one segment's length in metres (0 for an
// out-of-range id) — the handler's distance accounting.
func (s *Service) SegmentLength(id roadnet.SegmentID) float64 {
	if int(id) < 0 || int(id) >= s.net.NumSegments() {
		return 0
	}
	return s.net.Segment(id).Length()
}

// Errors the handler maps to HTTP statuses.
var (
	// ErrNodeRange reports a src/dst outside the network (a 400).
	ErrNodeRange = errors.New("node out of range")
	// ErrUnreachable reports no directed path from src to dst (a 404).
	ErrUnreachable = errors.New("unreachable")
)

// Leg is one driven segment of a planned route with its predicted
// timeline.
type Leg struct {
	Seg      roadnet.SegmentID
	From, To roadnet.NodeID
	// Enter is the predicted time the vehicle enters the segment.
	Enter float64
	// Drive is the free-flow traversal time.
	Drive float64
	// Wait is the predicted red wait at the entered intersection (zero on
	// the final leg, at unsignalised nodes and on degraded edges).
	Wait float64
	// Degraded marks a leg whose wait came from the free-flow fallback
	// because the intersection had no fresh estimate.
	Degraded bool
}

// PlanResult is one answered route query.
type PlanResult struct {
	Route          roadnet.Route
	Depart, Arrive float64
	// Degraded is true when any leg on the returned route lacked a fresh
	// prediction, so the realised time may exceed Route.Cost.
	Degraded bool
	// Expanded counts settled search nodes — the work metric exported as
	// a histogram.
	Expanded int
	Legs     []Leg
}

// predEntry is one cached key resolution. Negative answers (no usable
// estimate) are cached too: between rounds an unestimated light must not
// re-touch the engine on every query either.
type predEntry struct {
	res    core.Result
	health string
	usable bool
}

// predCache memoises key resolutions for one source epoch. A Plan that
// observes a newer epoch than the cache resets it; a Plan holding an
// older epoch (a race with an in-flight round) skips the cache entirely
// rather than poisoning it.
type predCache struct {
	mu      sync.RWMutex
	epoch   uint64
	entries map[mapmatch.Key]predEntry
}

func (c *predCache) get(epoch uint64, k mapmatch.Key) (predEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.epoch != epoch {
		return predEntry{}, false
	}
	e, ok := c.entries[k]
	return e, ok
}

func (c *predCache) put(epoch uint64, k mapmatch.Key, e predEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch > c.epoch {
		// First write of a new epoch invalidates everything cached.
		c.epoch = epoch
		clear(c.entries)
	} else if epoch < c.epoch {
		return // stale writer; drop
	}
	c.entries[k] = e
}

// resolve returns the prediction for one key under the Plan's pinned
// epoch, consulting the cache first.
func (s *Service) resolve(epoch uint64, k mapmatch.Key) predEntry {
	if e, ok := s.cache.get(epoch, k); ok {
		s.met.cacheHits.Add(1)
		return e
	}
	s.met.cacheMisses.Add(1)
	est, health, ok := s.src.Predict(k)
	e := predEntry{health: health}
	if ok && est.Err == nil && est.Cycle > 0 && healthUsable(health) {
		e.res = est.Result
		e.usable = true
	}
	s.cache.put(epoch, k, e)
	return e
}

// healthUsable reports whether an estimate under the given health label
// may drive wait predictions. Anything below fresh falls back to
// free-flow: a stale schedule's phase anchor drifts, and a confidently
// wrong countdown is worse than none.
func healthUsable(health string) bool {
	return health == "" || health == "fresh"
}

// waitUnder evaluates the predicted red wait for entering the
// intersection behind seg at time t under a usable cached estimate.
func waitUnder(res core.Result, t float64) float64 {
	state, until, ok := res.PhaseAt(t)
	if !ok || state != lights.Red {
		return 0
	}
	return until
}

// scratch is the pooled A* working set.
type scratch struct {
	arrive []float64
	prev   []roadnet.SegmentID
	done   []bool
	deg    []bool
	pq     []qitem
}

// qitem is one frontier entry ordered by f = g + h.
type qitem struct {
	id roadnet.NodeID
	f  float64
}

func (s *Service) acquire(nn int) *scratch {
	v := s.pool.Get()
	sc, _ := v.(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	if cap(sc.arrive) < nn {
		sc.arrive = make([]float64, nn)
		sc.prev = make([]roadnet.SegmentID, nn)
		sc.done = make([]bool, nn)
		sc.deg = make([]bool, nn)
	}
	sc.arrive = sc.arrive[:nn]
	sc.prev = sc.prev[:nn]
	sc.done = sc.done[:nn]
	sc.deg = sc.deg[:nn]
	for i := range sc.arrive {
		sc.arrive[i] = math.Inf(1)
		sc.prev[i] = -1
		sc.done[i] = false
		sc.deg[i] = false
	}
	sc.pq = sc.pq[:0]
	return sc
}

func (sc *scratch) push(it qitem) {
	sc.pq = append(sc.pq, it)
	q := sc.pq
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].f <= q[i].f {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (sc *scratch) pop() qitem {
	q := sc.pq
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	sc.pq = q[:n]
	q = sc.pq
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q[l].f < q[min].f {
			min = l
		}
		if r < n && q[r].f < q[min].f {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// Plan answers one route query. freeFlow skips predictions entirely and
// routes by free-flow drive time — the A/B baseline (mode=freeflow).
// Plan is safe for concurrent use.
func (s *Service) Plan(src, dst roadnet.NodeID, depart float64, freeFlow bool) (PlanResult, error) {
	net := s.net
	nn := net.NumNodes()
	if int(src) >= nn || int(dst) >= nn || src < 0 || dst < 0 {
		return PlanResult{}, fmt.Errorf("routesvc: %w: %d -> %d (network has %d nodes)", ErrNodeRange, src, dst, nn)
	}
	epoch := s.src.Epoch()
	dstPos := net.Node(dst).Pos
	h := func(id roadnet.NodeID) float64 {
		return net.Node(id).Pos.Sub(dstPos).Norm() / s.maxSpeed
	}
	sc := s.acquire(nn)
	defer s.pool.Put(sc)
	arrive, prev, done, deg := sc.arrive, sc.prev, sc.done, sc.deg
	arrive[src] = depart
	sc.push(qitem{id: src, f: depart + h(src)})
	expanded := 0
	for len(sc.pq) > 0 {
		it := sc.pop()
		if done[it.id] {
			continue
		}
		done[it.id] = true
		expanded++
		if it.id == dst {
			break
		}
		for _, sid := range net.Node(it.id).Out {
			seg := net.Segment(sid)
			t := arrive[it.id] + seg.TravelTime()
			edgeDeg := false
			if !freeFlow && seg.To != dst {
				// Waits at the destination are irrelevant: the trip ends.
				if to := net.Node(seg.To); to.Signalised() {
					k := mapmatch.Key{Light: seg.To, Approach: seg.Approach()}
					if e := s.resolve(epoch, k); e.usable {
						t += waitUnder(e.res, t)
					} else {
						edgeDeg = true
					}
				}
			}
			if t < arrive[seg.To] {
				arrive[seg.To] = t
				prev[seg.To] = sid
				deg[seg.To] = deg[it.id] || edgeDeg
				sc.push(qitem{id: seg.To, f: t + h(seg.To)})
			}
		}
	}
	s.met.expandedNodes.Observe(float64(expanded))
	if math.IsInf(arrive[dst], 1) {
		return PlanResult{}, fmt.Errorf("routesvc: node %d %w from %d", dst, ErrUnreachable, src)
	}
	segs := make([]roadnet.SegmentID, 0, 16)
	for at := dst; at != src; {
		sid := prev[at]
		segs = append(segs, sid)
		at = net.Segment(sid).From
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	res := PlanResult{
		Route:    roadnet.Route{Segments: segs, Cost: arrive[dst] - depart},
		Depart:   depart,
		Arrive:   arrive[dst],
		Degraded: deg[dst],
		Expanded: expanded,
		Legs:     make([]Leg, 0, len(segs)),
	}
	// Forward replay for the leg timeline; every resolution is a cache
	// hit from the search above.
	t := depart
	for i, sid := range segs {
		seg := net.Segment(sid)
		leg := Leg{Seg: sid, From: seg.From, To: seg.To, Enter: t, Drive: seg.TravelTime()}
		t += leg.Drive
		if !freeFlow && i < len(segs)-1 && net.Node(seg.To).Signalised() {
			k := mapmatch.Key{Light: seg.To, Approach: seg.Approach()}
			if e := s.resolve(epoch, k); e.usable {
				leg.Wait = waitUnder(e.res, t)
				t += leg.Wait
			} else {
				leg.Degraded = true
			}
		}
		res.Legs = append(res.Legs, leg)
	}
	if freeFlow {
		// The baseline ignores lights by design; it is not a degraded
		// light-aware answer.
		res.Degraded = false
	}
	if res.Degraded {
		s.met.degraded.Add(1)
	}
	s.met.plans.Add(1)
	return res, nil
}
