package cluster

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/mapmatch"
	"taxilight/internal/routesvc"
	"taxilight/internal/server"
)

// RoutePredictions adapts the cluster into the routing service's
// prediction source. Keys this node estimates locally resolve through
// the server's own source; keys owned elsewhere resolve through a bulk
// peer-snapshot cache refreshed at most once per PullInterval — one
// snapshot fetch per alive peer per interval, never one forwarded
// request per edge relaxation, so a route query over a thousand
// intersections costs the same peer traffic as one. Each refresh bumps
// the source epoch, fencing the routing service's per-edge cache
// against superseded peer data exactly as local rounds fence it
// against superseded local estimates. Keys nobody can answer fall back
// to this node's replicated WAL records, capped at "stale" health —
// the routing service then plans those edges free-flow, same as any
// other non-fresh answer.
func (n *Node) RoutePredictions() routesvc.PredictionSource {
	return &clusterPredictions{
		n:     n,
		local: n.srv.RoutePredictions(),
		ttl:   n.cfg.PullInterval,
	}
}

// peerEstimate is one approach's estimate as reported by its owner.
type peerEstimate struct {
	est    core.Estimate
	health string
}

type clusterPredictions struct {
	n     *Node
	local routesvc.PredictionSource
	ttl   time.Duration

	// gen counts peer-cache refreshes; added to the local epoch it
	// keeps Epoch() monotonic across both local rounds and peer pulls.
	gen atomic.Uint64

	mu         sync.Mutex
	peers      map[mapmatch.Key]peerEstimate
	fetchedAt  time.Time
	refreshing bool
}

func (cp *clusterPredictions) Predict(k mapmatch.Key) (core.Estimate, string, bool) {
	if est, health, ok := cp.local.Predict(k); ok {
		return est, health, true
	}
	if pe, ok := cp.peersMap()[k]; ok {
		return pe.est, pe.health, true
	}
	// Replicated WAL records cover keys whose owner is unreachable.
	// Aged data beats no data, but never above "stale": the routing
	// service degrades those edges to free-flow rather than trusting
	// an estimate that outlived its owner.
	if est, ok := cp.n.replicaEstimate(k, cp.Now()); ok {
		return est, est.Health.String(), true
	}
	return core.Estimate{}, "", false
}

func (cp *clusterPredictions) Epoch() uint64 { return cp.local.Epoch() + cp.gen.Load() }
func (cp *clusterPredictions) Now() float64  { return cp.local.Now() }

// peersMap returns the peer-estimate cache, refreshing it when older
// than the pull interval. The refresh is single-flight: while one
// caller fetches, everyone else keeps planning on the previous map
// (possibly empty on a cold start) instead of queueing behind the
// network — a route answer computed on slightly aged peer data is
// still an answer, and the epoch bump invalidates it shortly after.
func (cp *clusterPredictions) peersMap() map[mapmatch.Key]peerEstimate {
	cp.mu.Lock()
	if (cp.peers != nil && time.Since(cp.fetchedAt) < cp.ttl) || cp.refreshing {
		m := cp.peers
		cp.mu.Unlock()
		return m
	}
	cp.refreshing = true
	cp.mu.Unlock()

	m := cp.fetchPeers()

	cp.mu.Lock()
	cp.peers = m
	cp.fetchedAt = time.Now()
	cp.refreshing = false
	cp.mu.Unlock()
	// Bump after the map is installed so any epoch observed at the new
	// value resolves against the new data, never the old.
	cp.gen.Add(1)
	return m
}

// fetchPeers bulk-fetches every alive peer's local snapshot
// contribution and folds it into one key→estimate map, newest window
// per key. Unreachable peers are skipped — their keys surface through
// the replica fallback or degrade to free-flow.
func (cp *clusterPredictions) fetchPeers() map[mapmatch.Key]peerEstimate {
	byKey := newestByKey(cp.n.peerSnapshots(context.Background()))
	out := make(map[mapmatch.Key]peerEstimate, len(byKey))
	for k, aj := range byKey {
		out[k] = estimateFromApproach(k, aj)
	}
	return out
}

// estimateFromApproach reconstructs an engine estimate from its
// snapshot wire form. The peer has already applied its own health
// overrides, so the carried health string is authoritative.
func estimateFromApproach(k mapmatch.Key, aj server.SnapshotApproach) peerEstimate {
	res := core.Result{
		Key:             k,
		Cycle:           aj.Cycle,
		Red:             aj.Red,
		Green:           aj.Green,
		GreenToRedPhase: aj.GreenToRed,
		WindowStart:     aj.WindowStart,
		WindowEnd:       aj.WindowEnd,
		Quality:         aj.Quality,
		Records:         aj.Records,
	}
	if res.Cycle > 0 {
		res.RedToGreenPhase = math.Mod(res.GreenToRedPhase+res.Red, res.Cycle)
	}
	st := core.Stale
	switch aj.Health {
	case "", core.Fresh.String():
		st = core.Fresh
	case core.Quarantined.String():
		st = core.Quarantined
	}
	return peerEstimate{
		est:    core.Estimate{Result: res, Age: aj.AgeSeconds, Health: st},
		health: aj.Health,
	}
}
