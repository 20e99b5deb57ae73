package cluster

import (
	"fmt"
	"net/url"
	"sort"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/mapmatch"
	"taxilight/internal/store"
)

// Dynamic membership. A fresh node starts in the joining state: gossip
// announces it, every peer inserts it into the ring and into replica
// placement, but nobody — the joiner included — treats it as an owner
// yet. While joining, the node's ordinary pull loops bulk-prime a
// replica of every peer (checkpoint plus WAL tail, throttled on the
// donor side), and joinLoop imports the WAL history of its future keys
// into the local store. Once every serving peer is primed, the node
// cuts over: it primes its engine with the newest replicated record of
// every key it is about to own, flips joining → alive under a fresh
// incarnation, and lets the next gossip round move ownership. Peers
// react through syncOwnership exactly as they do to a death — the join
// and the failure paths share one ownership-change mechanism.

// joinLoop drives a joining node to cutover.
func (n *Node) joinLoop() {
	defer n.wg.Done()
	start := time.Now()
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.handoffPending.Store(int64(len(n.adoptedAtCutover(n.ringNow()))))
		if n.joinReady() {
			break
		}
	}
	if err := n.importHistory(); err != nil {
		// History is a serving nicety, not correctness: estimates ride the
		// replicas. Log and continue rather than wedge the join.
		n.cfg.Logf("cluster: node %s join history import incomplete: %v", n.cfg.NodeID, err)
	}
	if n.cfg.JoinBarrier != nil {
		select {
		case <-n.stop:
			return
		case <-n.cfg.JoinBarrier:
		}
	}
	n.cutover(start)
}

// joinReady reports whether the bulk pull has landed: at least one
// serving peer exists and every serving peer's replica is primed with a
// caught-up cursor (no nudge outstanding would beat a plain primed
// check, but primed-plus-tail is what promotion needs).
func (n *Node) joinReady() bool {
	peers := 0
	for _, mb := range n.mem.View() {
		if mb.ID == n.cfg.NodeID || mb.State != StateAlive || mb.URL == "" {
			continue
		}
		peers++
		n.mu.Lock()
		pr := n.replicas[mb.ID]
		n.mu.Unlock()
		if pr == nil {
			return false
		}
		pr.mu.Lock()
		primed := pr.primed
		pr.mu.Unlock()
		if !primed {
			return false
		}
	}
	return peers > 0
}

// adoptedAtCutover returns the newest replicated record of every key
// this joiner will own at cutover: every replicated key whose primary
// over the post-join serving set (current serving members plus self) is
// this node.
func (n *Node) adoptedAtCutover(ring *Ring) map[mapmatch.Key]store.Record {
	future := func(id string) bool { return id == n.cfg.NodeID || n.mem.Serving(id) }
	return n.newestReplicas(func(k mapmatch.Key) bool { return ring.Primary(k, future) == n.cfg.NodeID })
}

// importHistory bulk-pulls the WAL history of this node's future keys
// from every serving peer and appends it to the local store, so
// /v1/history answers survive the handoff. The export is filtered on
// the donor (owned_by=self selects exactly the adopted slice) and
// throttled as bulk traffic; records are deduplicated across donors
// (promotion re-persists, so two donors can hold the same window) and
// appended in window order under fresh local sequences.
func (n *Node) importHistory() error {
	type winKey struct {
		k   mapmatch.Key
		end float64
	}
	dedup := make(map[winKey]store.Record)
	var firstErr error
	for _, mb := range n.mem.View() {
		if mb.ID == n.cfg.NodeID || mb.State != StateAlive || mb.URL == "" {
			continue
		}
		u := fmt.Sprintf("%s/cluster/v1/wal?from=0&owned_by=%s&bulk=1", mb.URL, url.QueryEscape(n.cfg.NodeID))
		resp, err := n.client.Get(u)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		err = store.ReadStream(resp.Body, func(rec store.Record) error {
			dedup[winKey{rec.Key(), rec.WindowEnd}] = rec
			return nil
		})
		resp.Body.Close()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if len(dedup) == 0 {
		return firstErr
	}
	recs := make([]store.Record, 0, len(dedup))
	for _, rec := range dedup {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].WindowEnd != recs[j].WindowEnd {
			return recs[i].WindowEnd < recs[j].WindowEnd
		}
		ki, kj := recs[i].Key(), recs[j].Key()
		if ki.Light != kj.Light {
			return ki.Light < kj.Light
		}
		return ki.Approach < kj.Approach
	})
	if err := n.st.Append(recs...); err != nil {
		return err
	}
	if err := n.st.Sync(); err != nil {
		return err
	}
	n.cfg.Logf("cluster: node %s imported %d history records for its key slice", n.cfg.NodeID, len(recs))
	return firstErr
}

// cutover is the joining → serving flip: prime the engine with the
// newest replicated record of every adopted key (health-capped at
// "stale" until a local round refreshes it, same as a failover
// promotion), then re-incarnate as alive and gossip it out. Ownership
// moves atomically with the serving-set change: until peers see the
// flip they keep admitting the keys, after it their syncOwnership
// evicts moved watchers and routes here.
func (n *Node) cutover(started time.Time) {
	ring := n.ringNow()
	adopted := n.adoptedAtCutover(ring)
	var rs []core.Result
	n.mu.Lock()
	for k, rec := range adopted {
		rs = append(rs, rec.Result())
		n.promoted[k] = rec.WindowEnd
	}
	n.mu.Unlock()
	accepted := 0
	if len(rs) > 0 {
		accepted = n.srv.PrimeResults(rs)
	}
	n.met.handoffKeys.Add(int64(accepted))
	n.handoffPending.Store(0)
	n.mem.BecomeServing()
	n.syncOwnership()
	n.gossipOnce()
	n.cfg.Logf("cluster: node %s joined serving with %d adopted keys (%.1f s after start)",
		n.cfg.NodeID, accepted, time.Since(started).Seconds())
}

// syncOwnership reconciles the node with the serving set. Whenever the
// serving fingerprint moves — a death, a leave, a revival, a join
// cutover, ours or anyone's — it bumps the ownership epoch, evicts
// /v1/watch subscribers whose keys this node no longer primaries (they
// reconnect and get redirected to the new owner), invalidates the route
// prediction cache, and marks every peer replica for re-priming so the
// next pull refetches a full checkpoint: under the new placement this
// node may replicate keys (and their pre-failure history) it previously
// ignored, and only a fresh checkpoint closes that gap.
func (n *Node) syncOwnership() {
	fp := n.mem.ServingFingerprint()
	n.mu.Lock()
	if fp == n.lastServing {
		n.mu.Unlock()
		return
	}
	prev := n.lastServing
	n.lastServing = fp
	n.mu.Unlock()
	epoch := n.epoch.Add(1)
	ring := n.ringNow()
	evicted := n.srv.EvictMovedWatchers(func(k mapmatch.Key) bool {
		o := ring.Primary(k, n.mem.Serving)
		return o != "" && o != n.cfg.NodeID
	})
	n.srv.BumpRouteEpoch()
	n.markReplicasForReprime()
	n.cfg.Logf("cluster: node %s ownership epoch %d (serving %q -> %q), evicted %d moved watchers",
		n.cfg.NodeID, epoch, prev, fp, evicted)
}

// markReplicasForReprime flags every peer replica to refetch a full
// checkpoint on its next pull (cursors are kept — the tail resumes
// where it was). Steady-state pulls only tail new WAL, so a replica
// that just entered a key's placement would otherwise never see the
// key's history from before the ownership change.
func (n *Node) markReplicasForReprime() {
	for _, pr := range n.peerReplicas() {
		pr.mu.Lock()
		pr.primed = false
		pr.mu.Unlock()
		select {
		case pr.nudge <- struct{}{}:
		default:
		}
	}
}

// repairLoop is the re-replication watchdog: on every tick it rescans
// which of this node's primary keys have fewer than R-1 serving
// successors caught up past the key's newest record, publishes the
// count (and its high-water mark) as the under-replication gauge, and
// nudges the notifier so lagging successors pull immediately. The data
// movement itself is the ordinary pull path — the scan only measures
// and accelerates it.
func (n *Node) repairLoop() {
	defer n.wg.Done()
	t := time.NewTicker(repairIntervals * n.cfg.PullInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.scanRepair()
		}
	}
}

// scanRepair recomputes the under-replication and pending-handoff
// gauges from the repair ledger.
func (n *Node) scanRepair() {
	ring := n.ringNow()
	under := 0
	pending := 0
	n.mu.Lock()
	for k, seq := range n.keySeq {
		owners := ring.Owners(k, n.cfg.ReplicationFactor, n.mem.Serving)
		if len(owners) == 0 || owners[0] != n.cfg.NodeID {
			// Ownership moved away (handoff or our own demotion): the new
			// primary's ledger tracks it now.
			delete(n.keySeq, k)
			continue
		}
		if future := ring.Primary(k, n.mem.InPlacement); future != n.cfg.NodeID {
			// Still ours, but a joiner will adopt it at cutover.
			pending++
		}
		if len(owners) < n.cfg.ReplicationFactor {
			under++
			continue
		}
		for _, peer := range owners[1:] {
			if n.ackSeq[peer] < seq {
				under++
				break
			}
		}
	}
	n.mu.Unlock()
	n.underrep.Store(int64(under))
	if v := int64(under); v > n.underrepPeak.Load() {
		n.underrepPeak.Store(v)
	}
	if n.mem.SelfState() != StateJoining {
		n.handoffPending.Store(int64(pending))
	}
	if under > 0 {
		select {
		case n.notifyCh <- struct{}{}:
		default:
		}
	}
}
