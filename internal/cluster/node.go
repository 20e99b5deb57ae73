package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/mapmatch"
	"taxilight/internal/metrics"
	"taxilight/internal/server"
	"taxilight/internal/store"
)

// Config tunes one cluster node.
type Config struct {
	// NodeID names this node; it must appear in Peers.
	NodeID string
	// Peers maps node ID to advertised base URL (http://host:port) for
	// every seed member, including this node. A joining node lists the
	// target membership (itself plus the existing cluster); the existing
	// nodes learn about the joiner through gossip — their own peer sets
	// never change on disk.
	Peers map[string]string
	// ReplicationFactor is how many nodes hold each key's estimates
	// (primary included); 0 means 2, which survives any single-node
	// failure.
	ReplicationFactor int
	// HeartbeatInterval is the gossip cadence; 0 means 500 ms.
	HeartbeatInterval time.Duration
	// FailAfter is how long a peer may stay silent before it is declared
	// dead and its keys promote (default 4x heartbeat).
	FailAfter time.Duration
	// PullInterval is the replica WAL-pull cadence (default 2x
	// heartbeat); publish notifications cut the latency below it. The
	// pull backoff and the repair scan follow it (see pullBackoffIntervals
	// and repairIntervals).
	PullInterval time.Duration
	// Join starts this node in the joining state: announced to the
	// cluster and inserted into the ring, but serving nothing until the
	// bulk pull completes and the node cuts over to alive.
	Join bool
	// JoinBarrier, when non-nil, delays the join cutover until the
	// channel closes (after the bulk pull has completed). Tests use it
	// to pin the cutover point; production leaves it nil.
	JoinBarrier <-chan struct{}
	// RebalanceBytesPerSec bounds the bytes/second this node serves to
	// bulk transfers (join handoff, replica re-priming) so rebalancing
	// cannot starve live ingest. 0 disables throttling.
	RebalanceBytesPerSec int64
	// Logf receives failover and replication log lines (default
	// log.Printf).
	Logf func(format string, args ...any)
}

const (
	// virtualNodes is the ring's virtual points per node.
	virtualNodes = 64
	// httpTimeout bounds every intra-cluster request.
	httpTimeout = 2 * time.Second
	// pullBackoffIntervals caps, in PullIntervals, the jittered exponential
	// backoff a pull loop applies after consecutive failures: a dead peer
	// must not be hammered at the pull cadence for the whole FailAfter
	// window.
	pullBackoffIntervals = 20
	// repairIntervals is the under-replication scan cadence in
	// PullIntervals.
	repairIntervals = 2
)

// withDefaults validates and fills the zero fields.
func (c *Config) withDefaults() error {
	if c.NodeID == "" {
		return fmt.Errorf("cluster: empty node id")
	}
	if _, ok := c.Peers[c.NodeID]; !ok {
		return fmt.Errorf("cluster: node id %q missing from peer set", c.NodeID)
	}
	switch {
	case c.ReplicationFactor < 0:
		return fmt.Errorf("cluster: negative replication factor %d", c.ReplicationFactor)
	case c.HeartbeatInterval < 0:
		return fmt.Errorf("cluster: negative heartbeat interval %v", c.HeartbeatInterval)
	case c.RebalanceBytesPerSec < 0:
		return fmt.Errorf("cluster: negative rebalance rate %d", c.RebalanceBytesPerSec)
	}
	if c.ReplicationFactor == 0 {
		c.ReplicationFactor = 2
	}
	if c.ReplicationFactor > len(c.Peers) {
		return fmt.Errorf("cluster: replication factor %d exceeds %d peers", c.ReplicationFactor, len(c.Peers))
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 4 * c.HeartbeatInterval
	}
	if c.PullInterval <= 0 {
		c.PullInterval = 2 * c.HeartbeatInterval
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return nil
}

// peerReplica is this node's warm copy of one peer's published
// estimates: the newest record per replicated key plus the WAL cursor
// the next pull resumes from. It lives in memory — durability arrives
// when a promotion pushes the records through the new primary's own
// persist path.
type peerReplica struct {
	mu      sync.Mutex
	primed  bool
	lastSeq uint64
	recs    map[mapmatch.Key]store.Record
	nudge   chan struct{}
}

// nodeMetrics are the cluster-layer counters, registered on the server's
// metrics registry by registerMetrics.
type nodeMetrics struct {
	forwards       *metrics.Counter
	forwardErrors  *metrics.Counter
	pulls          *metrics.Counter
	pullErrors     *metrics.Counter
	promotions     *metrics.Counter
	handoffKeys    *metrics.Counter
	watchRedirects *metrics.Counter
}

// Node wires one server into the cluster: it owns the ring, the
// membership view, the per-peer replicas and the HTTP router returned
// by Handler. Build with NewNode (before server.Start — it installs
// hooks), then Start, and serve Handler instead of the server's own.
type Node struct {
	cfg    Config
	srv    *server.Server
	st     *store.Store
	mem    *membership
	client *http.Client
	inner  http.Handler
	rebal  *byteBucket

	mu          sync.Mutex
	ring        *Ring
	promoted    map[mapmatch.Key]float64 // key → replicated WindowEnd capped at "stale"
	deadHandled map[string]bool
	replicas    map[string]*peerReplica
	lastServing string
	started     bool
	// keySeq is the repair ledger: for every key this node has persisted
	// as primary, the store sequence its newest record landed at. A key
	// counts under-replicated while fewer than R-1 serving successors
	// have acknowledged a pull cursor at or past that sequence.
	keySeq map[mapmatch.Key]uint64
	// ackSeq is the newest pull cursor each peer has presented on
	// /cluster/v1/wal — proof it holds everything up to that sequence.
	ackSeq map[string]uint64

	// epoch counts ownership changes: every serving-set transition
	// (death, leave, revival, join cutover) bumps it, evicts moved
	// watchers and invalidates routing caches.
	epoch atomic.Uint64

	underrep       atomic.Int64 // keys currently under-replicated
	underrepPeak   atomic.Int64 // high-water mark since start
	handoffPending atomic.Int64 // keys awaiting handoff across a join

	notifyCh chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	met nodeMetrics
}

// NewNode builds a cluster node around a not-yet-started server and its
// open store, and installs the server's cluster hooks: ingest ownership
// filtering, the promoted-key health cap, the /healthz cluster section
// and the persist notification trigger; its own series go on the
// server's metrics registry.
func NewNode(srv *server.Server, st *store.Store, cfg Config) (*Node, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	if srv == nil || st == nil {
		return nil, fmt.Errorf("cluster: a node needs a server and a durable store")
	}
	n := &Node{
		cfg:         cfg,
		srv:         srv,
		st:          st,
		mem:         newMembership(cfg.NodeID, cfg.Peers, cfg.FailAfter),
		client:      &http.Client{Timeout: httpTimeout},
		ring:        NewRing(sortedIDs(cfg.Peers), virtualNodes),
		promoted:    make(map[mapmatch.Key]float64),
		deadHandled: make(map[string]bool),
		replicas:    make(map[string]*peerReplica),
		keySeq:      make(map[mapmatch.Key]uint64),
		ackSeq:      make(map[string]uint64),
		notifyCh:    make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	if cfg.RebalanceBytesPerSec > 0 {
		n.rebal = newByteBucket(cfg.RebalanceBytesPerSec)
	}
	if cfg.Join {
		n.mem.MarkJoining()
	}
	n.lastServing = n.mem.ServingFingerprint()
	for id := range cfg.Peers {
		if id == cfg.NodeID {
			continue
		}
		n.replicas[id] = &peerReplica{recs: make(map[mapmatch.Key]store.Record), nudge: make(chan struct{}, 1)}
	}
	srv.SetClusterHooks(server.ClusterHooks{
		KeyOwned:       n.ownsKey,
		HealthOverride: n.healthOverride,
		Health:         n.healthSection,
		OnPersist:      n.onPersist,
	})
	n.registerMetrics(srv.Metrics())
	n.inner = srv.Handler()
	return n, nil
}

func sortedIDs(peers map[string]string) []string {
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	return ids // NewRing sorts its points; input order is irrelevant
}

// ReplicationFactor is how many nodes hold each key's estimates on this
// node's ring, primary included: Config.ReplicationFactor with its
// default filled in.
func (n *Node) ReplicationFactor() int { return n.cfg.ReplicationFactor }

// Start launches the gossip loop, one pull loop per peer, the persist
// notifier, the repair scanner and — on a joining node — the join
// driver.
func (n *Node) Start() {
	n.mu.Lock()
	n.started = true
	replicas := make(map[string]*peerReplica, len(n.replicas))
	for id, pr := range n.replicas {
		replicas[id] = pr
	}
	n.mu.Unlock()
	n.wg.Add(1)
	go n.gossipLoop()
	n.wg.Add(1)
	go n.notifierLoop()
	n.wg.Add(1)
	go n.repairLoop()
	for id, pr := range replicas {
		n.wg.Add(1)
		go n.pullLoop(id, pr)
	}
	if n.mem.SelfState() == StateJoining {
		n.wg.Add(1)
		go n.joinLoop()
	}
}

// Stop halts every loop. It does not gossip — a stopped node goes
// silent and the cluster's failure detector takes over, which is
// exactly what the kill drill exercises.
func (n *Node) Stop() {
	n.mu.Lock()
	n.started = false
	n.mu.Unlock()
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// Leave announces a graceful departure: the member view marks us left
// with a fresh incarnation and one final gossip round spreads it, so
// peers promote immediately instead of waiting out FailAfter.
func (n *Node) Leave() {
	n.mem.MarkLeft()
	n.gossipOnce()
}

// ringNow returns the current ring (rebuilt when gossip grows the
// member set).
func (n *Node) ringNow() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// rebuildRing recomputes the ring over the full member set and opens a
// replica (plus its pull loop, when running) for any member gossip just
// introduced — the receiving half of dynamic membership.
func (n *Node) rebuildRing() {
	ids := n.mem.IDs()
	n.mu.Lock()
	n.ring = NewRing(ids, virtualNodes)
	for _, id := range ids {
		if id == n.cfg.NodeID {
			continue
		}
		if _, ok := n.replicas[id]; ok {
			continue
		}
		pr := &peerReplica{recs: make(map[mapmatch.Key]store.Record), nudge: make(chan struct{}, 1)}
		n.replicas[id] = pr
		if n.started {
			// Add while holding mu: Stop flips started under the same lock
			// before it waits, so the counter can never race the Wait.
			n.wg.Add(1)
			go n.pullLoop(id, pr)
		}
	}
	n.mu.Unlock()
}

// ownsKey is the ingest filter: a node admits a matched record only
// when it is the key's current serving primary. When a node dies,
// ownership of its keys flips to the promoted replica at the next
// gossip sweep; when a joiner cuts over, ownership of its slice flips
// to it — from then on the new owner ingests them. A joining node owns
// nothing, including in its own view.
func (n *Node) ownsKey(k mapmatch.Key) bool {
	return n.ringNow().Primary(k, n.mem.Serving) == n.cfg.NodeID
}

// replicatesKey reports whether this node belongs to k's replica set —
// the filter deciding which pulled records to keep. Placement is over
// the members that could hold data (alive or joining): when a member
// dies its successor slides into the replica set and starts keeping the
// key, which is what re-replication after failure means here, and a
// joining node starts keeping its future keys before cutover.
func (n *Node) replicatesKey(k mapmatch.Key) bool {
	for _, id := range n.ringNow().Owners(k, n.cfg.ReplicationFactor, n.mem.InPlacement) {
		if id == n.cfg.NodeID {
			return true
		}
	}
	return false
}

// healthOverride caps a promoted key's served health at "stale" until a
// local estimation round publishes something newer than the replicated
// estimate — a client must never mistake failover state for a fresh
// answer. The cap clears itself lazily on the first served request
// after the refresh.
func (n *Node) healthOverride(k mapmatch.Key, health string) string {
	n.mu.Lock()
	end, ok := n.promoted[k]
	n.mu.Unlock()
	if !ok {
		return health
	}
	if est, found := n.srv.EstimateFor(k); found && est.WindowEnd > end {
		n.mu.Lock()
		delete(n.promoted, k)
		n.mu.Unlock()
		return health
	}
	if health == "" || health == "fresh" {
		return "stale"
	}
	return health
}

// onPersist is the server's persist hook: record the batch's keys in
// the repair ledger and wake the notifier, without ever blocking the
// store writer.
func (n *Node) onPersist(lastSeq uint64, keys []mapmatch.Key) {
	if len(keys) > 0 {
		n.mu.Lock()
		for _, k := range keys {
			n.keySeq[k] = lastSeq
		}
		n.mu.Unlock()
	}
	select {
	case n.notifyCh <- struct{}{}:
	default:
	}
}

// notifierLoop tells alive (and joining — they are mid-bulk-pull and
// want the freshest tail) peers "I have new WAL" after local appends,
// so replicas pull within an RTT instead of a PullInterval.
func (n *Node) notifierLoop() {
	defer n.wg.Done()
	body, _ := json.Marshal(map[string]string{"node": n.cfg.NodeID})
	for {
		select {
		case <-n.stop:
			return
		case <-n.notifyCh:
		}
		for _, mb := range n.mem.View() {
			if mb.ID == n.cfg.NodeID || mb.URL == "" {
				continue
			}
			if mb.State != StateAlive && mb.State != StateJoining {
				continue
			}
			resp, err := n.client.Post(mb.URL+"/cluster/v1/notify", "application/json", bytes.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
}

// gossipLoop heartbeats the full member view to every peer, sweeps the
// failure detector and reconciles ownership with the serving set.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.gossipOnce()
			if dead := n.mem.Sweep(); len(dead) > 0 {
				n.cfg.Logf("cluster: node %s declared %v dead after %v of silence", n.cfg.NodeID, dead, n.cfg.FailAfter)
			}
			n.handleDeparted()
			n.syncOwnership()
		}
	}
}

// gossipMsg is the POST /cluster/v1/gossip payload.
type gossipMsg struct {
	From    string   `json:"from"`
	Members []Member `json:"members"`
}

// gossipOnce exchanges views with every known peer; the response view
// is merged back so information spreads both ways each round.
func (n *Node) gossipOnce() {
	msg := gossipMsg{From: n.cfg.NodeID, Members: n.mem.View()}
	body, _ := json.Marshal(msg)
	for _, mb := range msg.Members {
		if mb.ID == n.cfg.NodeID || mb.URL == "" || mb.State == StateLeft {
			continue
		}
		resp, err := n.client.Post(mb.URL+"/cluster/v1/gossip", "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		var theirs []Member
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&theirs)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		if n.mem.Merge(theirs) {
			n.rebuildRing()
		}
		n.mem.NoteHeard(mb.ID)
	}
}

// handleDeparted promotes once per death (or leave): any key whose
// serving primary is now this node, and for which a replica holds a
// newer estimate than the local engine, is primed into the engine —
// after which the normal serve, estimate and persist paths treat it
// like home-grown state. A revived node clears its handled mark so a
// later death promotes again.
func (n *Node) handleDeparted() {
	for _, mb := range n.mem.View() {
		if mb.ID == n.cfg.NodeID {
			continue
		}
		n.mu.Lock()
		if mb.State == StateAlive || mb.State == StateJoining {
			delete(n.deadHandled, mb.ID)
			n.mu.Unlock()
			continue
		}
		handled := n.deadHandled[mb.ID]
		n.deadHandled[mb.ID] = true
		n.mu.Unlock()
		if !handled {
			n.promoteOrphans(mb.ID)
		}
	}
}

// promoteOrphans adopts every replicated key this node now primaries.
func (n *Node) promoteOrphans(departed string) {
	start := time.Now()
	ring := n.ringNow()
	best := n.newestReplicas(func(k mapmatch.Key) bool {
		return ring.Primary(k, n.mem.Serving) == n.cfg.NodeID
	})
	var rs []core.Result
	n.mu.Lock()
	for k, rec := range best {
		if est, ok := n.srv.EstimateFor(k); ok && est.WindowEnd >= rec.WindowEnd {
			continue
		}
		rs = append(rs, rec.Result())
		n.promoted[k] = rec.WindowEnd
	}
	n.mu.Unlock()
	if len(rs) == 0 {
		return
	}
	accepted := n.srv.PrimeResults(rs)
	n.met.promotions.Add(int64(accepted))
	n.cfg.Logf("cluster: node %s promoted %d replicated keys after %s departed (%.1f ms)",
		n.cfg.NodeID, accepted, departed, float64(time.Since(start).Microseconds())/1000)
}

// pullLoop replicates one peer's WAL: bootstrap from its live engine
// state (the checkpoint a restart would read), then tail its WAL from
// the cursor — the same warm-start contract a local restart uses, over
// HTTP. Ticks bound the staleness; notify nudges cut it to an RTT.
// Consecutive failures back off exponentially (with jitter, capped at
// pullBackoffIntervals pull intervals) so an unreachable peer is probed
// gently; a nudge or a success resets the cadence.
func (n *Node) pullLoop(peerID string, pr *peerReplica) {
	defer n.wg.Done()
	fails := 0
	timer := time.NewTimer(n.cfg.PullInterval)
	defer timer.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-pr.nudge:
			// A nudge is fresh evidence the peer is up: bypass any backoff
			// and pull immediately.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
		if n.mem.Alive(peerID) || n.mem.InPlacement(peerID) {
			if err := n.pullFrom(peerID, pr); err != nil {
				fails++
				n.met.pullErrors.Add(1)
			} else {
				fails = 0
				n.met.pulls.Add(1)
			}
		} else {
			fails = 0
		}
		timer.Reset(n.pullDelay(fails))
	}
}

// pullDelay computes the next pull wait: the base interval while
// healthy, or an exponential backoff with full ±50% jitter after fails
// consecutive errors, capped at pullBackoffIntervals pull intervals.
// Jitter keeps a fleet of replicas from re-probing a recovering peer in
// lockstep.
func (n *Node) pullDelay(fails int) time.Duration {
	d := n.cfg.PullInterval
	if fails > 0 {
		shift := fails
		if shift > 16 {
			shift = 16
		}
		d = n.cfg.PullInterval << shift
		if ceiling := pullBackoffIntervals * n.cfg.PullInterval; d <= 0 || d > ceiling {
			d = ceiling
		}
		d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	}
	if d <= 0 {
		d = n.cfg.PullInterval
	}
	return d
}

// pullFrom runs one replication round against a peer.
func (n *Node) pullFrom(peerID string, pr *peerReplica) error {
	base := n.mem.URL(peerID)
	if base == "" {
		return nil
	}
	pr.mu.Lock()
	primed, from := pr.primed, pr.lastSeq
	pr.mu.Unlock()
	if !primed {
		st, lastSeq, err := n.fetchCheckpoint(base)
		if err != nil {
			return err
		}
		pr.mu.Lock()
		for k, as := range st.Approaches {
			rec, ok := store.FromResult(as.Result)
			if !ok || !n.replicatesKey(k) {
				continue
			}
			if old, exists := pr.recs[k]; !exists || rec.WindowEnd >= old.WindowEnd {
				pr.recs[k] = rec
			}
		}
		pr.primed = true
		if lastSeq > pr.lastSeq {
			pr.lastSeq = lastSeq
		}
		from = pr.lastSeq
		pr.mu.Unlock()
	}
	return n.fetchWAL(base, from, pr)
}

// fetchCheckpoint reads a peer's current merged engine state and WAL
// cursor. The peer samples the cursor *before* exporting state, so a
// concurrent append is re-delivered by the tail rather than lost.
// Checkpoint transfers are the bulk half of replication, so they are
// marked for the peer's rebalance throttle.
func (n *Node) fetchCheckpoint(base string) (core.EngineState, uint64, error) {
	resp, err := n.client.Get(base + "/cluster/v1/ckpt?bulk=1")
	if err != nil {
		return core.EngineState{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return core.EngineState{}, 0, fmt.Errorf("cluster: checkpoint fetch: %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return core.EngineState{}, 0, err
	}
	return store.DecodeState(body)
}

// fetchWAL tails a peer's WAL from a sequence cursor, folding newer
// records for keys in our replica set. The cursor rides along as the
// ack: presenting from=N tells the peer we hold everything through N,
// which is what its under-replication scan counts.
func (n *Node) fetchWAL(base string, from uint64, pr *peerReplica) error {
	resp, err := n.client.Get(fmt.Sprintf("%s/cluster/v1/wal?from=%d&peer=%s", base, from, url.QueryEscape(n.cfg.NodeID)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: wal fetch: %s", resp.Status)
	}
	return store.ReadStream(resp.Body, func(rec store.Record) error {
		pr.mu.Lock()
		defer pr.mu.Unlock()
		if rec.Seq > pr.lastSeq {
			pr.lastSeq = rec.Seq
		}
		k := rec.Key()
		if !n.replicatesKey(k) {
			return nil
		}
		if old, exists := pr.recs[k]; !exists || rec.WindowEnd >= old.WindowEnd {
			pr.recs[k] = rec
		}
		return nil
	})
}

// peerReplicas lists the per-peer replicas, so callers can walk them
// without holding n.mu.
func (n *Node) peerReplicas() []*peerReplica {
	n.mu.Lock()
	defer n.mu.Unlock()
	replicas := make([]*peerReplica, 0, len(n.replicas))
	for _, pr := range n.replicas {
		replicas = append(replicas, pr)
	}
	return replicas
}

// newer is the one rule for "the newest estimate wins", across replicas
// and snapshot documents alike: a strictly later window end. On a tie
// the copy already held stays.
func newer(windowEnd, thanWindowEnd float64) bool { return windowEnd > thanWindowEnd }

// replicaRecord returns the newest replicated record for a key across
// every peer replica — the serve-from-replica fallback during the
// failover window before promotion lands.
func (n *Node) replicaRecord(k mapmatch.Key) (store.Record, bool) {
	var best store.Record
	found := false
	for _, pr := range n.peerReplicas() {
		pr.mu.Lock()
		if rec, ok := pr.recs[k]; ok && (!found || newer(rec.WindowEnd, best.WindowEnd)) {
			best, found = rec, true
		}
		pr.mu.Unlock()
	}
	return best, found
}

// newestReplicas returns the newest replicated record of every key keep
// accepts, across every peer replica.
func (n *Node) newestReplicas(keep func(mapmatch.Key) bool) map[mapmatch.Key]store.Record {
	best := make(map[mapmatch.Key]store.Record)
	for _, pr := range n.peerReplicas() {
		pr.mu.Lock()
		for k, rec := range pr.recs {
			if b, ok := best[k]; (ok && !newer(rec.WindowEnd, b.WindowEnd)) || !keep(k) {
				continue
			}
			best[k] = rec
		}
		pr.mu.Unlock()
	}
	return best
}

// staleEstimate turns a replicated record into the estimate the cluster
// serves from it, aged to stream time now and never above "stale": the
// estimate is real, but the node that computed it is out of reach.
func staleEstimate(rec store.Record, now float64) core.Estimate {
	return core.Estimate{Result: rec.Result(), Age: now - rec.WindowEnd, Health: core.Stale}
}

// replicaEstimate returns the newest replicated record of k as a stale
// estimate aged to now.
func (n *Node) replicaEstimate(k mapmatch.Key, now float64) (core.Estimate, bool) {
	rec, ok := n.replicaRecord(k)
	return staleEstimate(rec, now), ok
}

// clusterHealthJSON is the /healthz "cluster" section.
type clusterHealthJSON struct {
	Self              string                   `json:"self"`
	SelfState         string                   `json:"self_state"`
	ReplicationFactor int                      `json:"replication_factor"`
	RingEpoch         uint64                   `json:"ring_epoch"`
	Members           []Member                 `json:"members"`
	Replicas          map[string]replicaHealth `json:"replicas"`
	PromotedKeys      int                      `json:"promoted_keys"`
	// OwnedKeys counts, per serving member, the keys this node knows of
	// (its own persisted keys plus everything replicated to it) that the
	// ring currently assigns to that member — the rebalance census.
	OwnedKeys map[string]int `json:"owned_keys"`
	// PendingHandoff is how many keys are waiting to move across a join
	// (on the joiner: keys it will adopt; on a donor: keys it will shed).
	PendingHandoff int `json:"pending_handoff"`
	// Underreplicated is how many of this node's primary keys fewer than
	// ReplicationFactor-1 serving successors have acknowledged.
	Underreplicated int `json:"underreplicated_keys"`
}

type replicaHealth struct {
	Primed  bool   `json:"primed"`
	LastSeq uint64 `json:"last_seq"`
	Keys    int    `json:"keys"`
}

// healthSection renders the node's cluster view for /healthz.
func (n *Node) healthSection() any {
	doc := clusterHealthJSON{
		Self:              n.cfg.NodeID,
		SelfState:         n.mem.SelfState(),
		ReplicationFactor: n.cfg.ReplicationFactor,
		RingEpoch:         n.epoch.Load(),
		Members:           n.mem.View(),
		Replicas:          make(map[string]replicaHealth),
		OwnedKeys:         make(map[string]int),
		PendingHandoff:    int(n.handoffPending.Load()),
		Underreplicated:   int(n.underrep.Load()),
	}
	ring := n.ringNow()
	known := make(map[mapmatch.Key]bool)
	n.mu.Lock()
	doc.PromotedKeys = len(n.promoted)
	for k := range n.keySeq {
		known[k] = true
	}
	replicas := make(map[string]*peerReplica, len(n.replicas))
	for id, pr := range n.replicas {
		replicas[id] = pr
	}
	n.mu.Unlock()
	for id, pr := range replicas {
		pr.mu.Lock()
		doc.Replicas[id] = replicaHealth{Primed: pr.primed, LastSeq: pr.lastSeq, Keys: len(pr.recs)}
		for k := range pr.recs {
			known[k] = true
		}
		pr.mu.Unlock()
	}
	for k := range known {
		if owner := ring.Primary(k, n.mem.Serving); owner != "" {
			doc.OwnedKeys[owner]++
		}
	}
	return doc
}

// registerMetrics puts the lightd_cluster_* families on the server's
// registry: the counters the node increments, and a scrape-time census of
// membership, replicas and the repair gauges.
func (n *Node) registerMetrics(reg *metrics.Registry) {
	const counter, gauge = metrics.KindCounter, metrics.KindGauge
	n.met = nodeMetrics{
		forwards:       reg.Counter("lightd_cluster_forwards_total", "Requests forwarded to the key's owner, by outcome.", "outcome", "ok"),
		forwardErrors:  reg.Counter("lightd_cluster_forwards_total", "", "outcome", "error"),
		pulls:          reg.Counter("lightd_cluster_replica_pulls_total", "Replica WAL pulls from peers, by outcome.", "outcome", "ok"),
		pullErrors:     reg.Counter("lightd_cluster_replica_pulls_total", "", "outcome", "error"),
		promotions:     reg.Counter("lightd_cluster_promotions_total", "Replicated keys promoted to primary after an owner died or left."),
		handoffKeys:    reg.Counter("lightd_cluster_handoff_keys_total", "Keys adopted at a join cutover."),
		watchRedirects: reg.Counter("lightd_cluster_watch_redirects_total", "Watch subscriptions redirected to their key's owner."),
	}
	reg.Declare(counter, "lightd_cluster_pull_errors_total", "Failed replica pulls (the error outcome of lightd_cluster_replica_pulls_total).")
	reg.Declare(gauge, "lightd_cluster_members", "Cluster members in this node's view, by state.",
		metrics.L("state", StateAlive, StateJoining, StateDead, StateLeft))
	reg.Declare(gauge, "lightd_cluster_replica_records", "Records held in warm replicas of peers.")
	reg.Declare(gauge, "lightd_cluster_promoted_keys", "Promoted keys still capped at stale until re-estimated.")
	reg.Declare(gauge, "lightd_cluster_ring_epoch", "Ownership changes seen since start.")
	reg.Declare(gauge, "lightd_cluster_underreplicated_keys", "Keys with fewer acknowledged replicas than the replication factor asks.")
	reg.Declare(gauge, "lightd_cluster_underreplicated_keys_peak", "High-water mark of under-replicated keys since start.")
	reg.Declare(gauge, "lightd_cluster_handoff_pending_keys", "Keys awaiting handoff across a join.")
	if n.rebal != nil {
		reg.Declare(counter, "lightd_cluster_rebalance_throttled_bytes_total", "Bulk-transfer bytes that passed the rebalance throttle.")
		reg.Declare(counter, "lightd_cluster_rebalance_throttle_waits_total", "Times a bulk transfer waited on the rebalance throttle.")
	}
	reg.Collect(n.collectMetrics)
}

func (n *Node) collectMetrics(sc *metrics.Scrape) {
	sc.Value("lightd_cluster_pull_errors_total", float64(n.met.pullErrors.Load()))
	counts := make(map[string]int)
	for _, mb := range n.mem.View() {
		counts[mb.State]++
	}
	for _, st := range []string{StateAlive, StateJoining, StateDead, StateLeft} {
		sc.Value("lightd_cluster_members", float64(counts[st]), "state", st)
	}
	replicaRecords := 0
	n.mu.Lock()
	promoted := len(n.promoted)
	n.mu.Unlock()
	for _, pr := range n.peerReplicas() {
		pr.mu.Lock()
		replicaRecords += len(pr.recs)
		pr.mu.Unlock()
	}
	sc.Value("lightd_cluster_replica_records", float64(replicaRecords))
	sc.Value("lightd_cluster_promoted_keys", float64(promoted))
	sc.Value("lightd_cluster_ring_epoch", float64(n.epoch.Load()))
	sc.Value("lightd_cluster_underreplicated_keys", float64(n.underrep.Load()))
	sc.Value("lightd_cluster_underreplicated_keys_peak", float64(n.underrepPeak.Load()))
	sc.Value("lightd_cluster_handoff_pending_keys", float64(n.handoffPending.Load()))
	if n.rebal != nil {
		sc.Value("lightd_cluster_rebalance_throttled_bytes_total", float64(n.rebal.throttledBytes.Load()))
		sc.Value("lightd_cluster_rebalance_throttle_waits_total", float64(n.rebal.waits.Load()))
	}
}
