// Package routesvc is the online routing subsystem: it serves
// light-aware routes over a road network using *live* schedule estimates
// from the realtime engine — the paper's §IX payoff (bypassing red
// lights cuts travel time ~15%) turned into a queryable endpoint.
//
// Routing is time-dependent earliest-arrival A*, and the search is
// roadnet's ((*Network).EarliestArrival — the one label-setting core
// every planner in the repository calls). The service supplies the two
// things that are its own: the arrival oracle — free-flow drive time plus
// the predicted red wait at the entered intersection — and the heuristic,
// the free-flow time on the straight-line distance to the destination
// (admissible and consistent, because no segment is faster than the
// network's maximum speed and waits are non-negative). Waits are FIFO —
// an estimate is a fixed-cycle schedule, so arriving earlier never yields
// a later departure — which makes label setting exact. Around the search
// it pins the prediction epoch, replays the chosen route forward for the
// per-leg timeline and the degraded flags, and counts.
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
	ErrUnreachable = roadnet.ErrUnreachable
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

// predEntry is one cached key resolution. At 128 bytes it is stored in
// the map's own slots, so a fill allocates nothing; a larger entry would
// be stored out of line. Negative answers (no usable estimate) are cached
// too: between rounds an unestimated light must not re-touch the engine
// on every query either.
type predEntry struct {
	res    core.Result
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
	var e predEntry
	if est, health, ok := s.src.Predict(k); ok && est.Err == nil && est.Cycle > 0 && healthUsable(health) {
		e = predEntry{res: est.Result, usable: true}
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

// wait returns the predicted red wait for a vehicle that reaches the end
// of seg at time t, and whether the intersection there is signalised but
// has no usable estimate — the edge is then traversed on free-flow
// fallback.
func (s *Service) wait(epoch uint64, seg *roadnet.Segment, t float64) (wait float64, degraded bool) {
	if !s.net.Node(seg.To).Signalised() {
		return 0, false
	}
	e := s.resolve(epoch, mapmatch.Key{Light: seg.To, Approach: seg.Approach()})
	if !e.usable {
		return 0, true
	}
	return waitUnder(e.res, t), false
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
	route, expanded, err := net.EarliestArrival(src, dst, depart,
		func(seg *roadnet.Segment, t float64) float64 {
			t += seg.TravelTime()
			if freeFlow || seg.To == dst {
				return t // no wait at the destination: the trip ends
			}
			w, _ := s.wait(epoch, seg, t)
			return t + w
		},
		func(id roadnet.NodeID) float64 {
			return net.Node(id).Pos.Sub(dstPos).Norm() / s.maxSpeed
		})
	if err != nil && !errors.Is(err, ErrUnreachable) {
		return PlanResult{}, fmt.Errorf("routesvc: %w", err)
	}
	s.met.expandedNodes.Observe(float64(expanded))
	if err != nil {
		return PlanResult{}, fmt.Errorf("routesvc: node %d %w from %d", dst, ErrUnreachable, src)
	}
	res := PlanResult{
		Route:    route,
		Depart:   depart,
		Expanded: expanded,
		Legs:     make([]Leg, 0, len(route.Segments)),
	}
	// Forward replay for the leg timeline, repeating the search's own
	// additions along the route, so t ends on the search's label for dst;
	// every resolution is a cache hit from the search above.
	t := depart
	for i, sid := range route.Segments {
		seg := net.Segment(sid)
		leg := Leg{Seg: sid, From: seg.From, To: seg.To, Enter: t, Drive: seg.TravelTime()}
		t += leg.Drive
		if !freeFlow && i < len(route.Segments)-1 {
			leg.Wait, leg.Degraded = s.wait(epoch, seg, t)
			t += leg.Wait
			res.Degraded = res.Degraded || leg.Degraded
		}
		res.Legs = append(res.Legs, leg)
	}
	res.Arrive = t
	if res.Degraded {
		s.met.degraded.Add(1)
	}
	s.met.plans.Add(1)
	return res, nil
}
