package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"taxilight/internal/mapmatch"
	"taxilight/internal/server"
	"taxilight/internal/store"
)

// forwardedHeader marks an intra-cluster hop: the receiving node serves
// locally instead of routing again, so divergent ring views can never
// bounce a request in a loop.
const forwardedHeader = "X-Taxilight-Forwarded"

// Handler returns the cluster-facing HTTP surface: the public /v1/state,
// /v1/history and /v1/snapshot routes with ring routing layered on top
// of the server's handlers, the intra-cluster /cluster/v1/* endpoints,
// and a passthrough for everything else (/healthz, /metrics, /debug/*).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/state/{light}/{approach}", n.routeState)
	mux.HandleFunc("GET /v1/history/{light}/{approach}", n.routeHistory)
	mux.HandleFunc("GET /v1/snapshot", n.routeSnapshot)
	mux.HandleFunc("GET /v1/watch", n.routeWatch)
	mux.HandleFunc("POST /cluster/v1/gossip", n.handleGossip)
	mux.HandleFunc("GET /cluster/v1/wal", n.handleWAL)
	mux.HandleFunc("GET /cluster/v1/ckpt", n.handleCkpt)
	mux.HandleFunc("POST /cluster/v1/notify", n.handleNotify)
	mux.Handle("/", n.inner)
	return mux
}

// routeState routes one per-key query along the ring: serve locally
// when this node is an alive owner, otherwise forward to the owners in
// ring order. If every live owner is unreachable the node answers from
// its own replica — a degraded 200 marked "stale" beats a 502 during a
// failover window.
func (n *Node) routeState(w http.ResponseWriter, r *http.Request) {
	key, err := server.ParseStateKey(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.Header.Get(forwardedHeader) != "" {
		n.serveLocalState(w, r, key)
		return
	}
	for _, o := range n.ringNow().Owners(key, n.cfg.ReplicationFactor, n.mem.Serving) {
		if o == n.cfg.NodeID {
			n.serveLocalState(w, r, key)
			return
		}
		if n.forward(w, r, o) == nil {
			return
		}
	}
	if !n.serveReplica(w, r, key) {
		n.inner.ServeHTTP(w, r)
	}
}

// serveLocalState answers from this node: the engine when it has the
// key (or for as-of queries, which read the local store), else the
// newest replicated record, else the inner handler's own 404/health
// answer.
func (n *Node) serveLocalState(w http.ResponseWriter, r *http.Request, key mapmatch.Key) {
	if _, ok := n.srv.EstimateFor(key); ok || r.URL.Query().Get("asof") != "" || !n.serveReplica(w, r, key) {
		n.inner.ServeHTTP(w, r)
	}
}

// serveReplica answers /v1/state from the newest replicated record,
// marked "stale": the estimate is real, but it was computed by a node we
// can no longer reach. It reports false, having written nothing, when
// no replica holds the key; a malformed t is answered 400 either way.
func (n *Node) serveReplica(w http.ResponseWriter, r *http.Request, k mapmatch.Key) bool {
	t := n.srv.StreamNow()
	if q := r.URL.Query().Get("t"); q != "" {
		v, err := server.ParseStreamTime("t", q)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return true
		}
		t = v
	}
	est, ok := n.replicaEstimate(k, t)
	if ok {
		server.WriteState(w, k, t, est, est.Health.String())
	}
	return ok
}

// routeWatch places a /v1/watch subscription on the keys' primary. A
// watch is a long-lived stream, so it is never proxied through a peer
// (a relaying node would pin a connection, a goroutine and a
// subscription slot per client for the stream's whole lifetime, and
// every hop would re-buffer the events the deadline/eviction machinery
// is timing). Instead a non-owner answers 307 with the owner's URL and
// the client reconnects directly — SSE clients already reconnect by
// design, and Last-Event-ID makes the hop lossless. For the same
// reason a multi-key watch must not span owners: there is no node that
// can serve it without proxying, so it is rejected with the owner
// split spelled out and the client subscribes per owner instead.
func (n *Node) routeWatch(w http.ResponseWriter, r *http.Request) {
	keys, err := server.ParseWatchKeys(r.URL.Query().Get("keys"))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ring := n.ringNow()
	owner := ""
	for _, k := range keys {
		o := ring.Primary(k, n.mem.Serving)
		if o == "" {
			continue // no serving owner: serve what we have locally
		}
		if owner == "" {
			owner = o
			continue
		}
		if o != owner {
			server.WriteError(w, http.StatusBadRequest, fmt.Sprintf(
				"watch keys span cluster owners (%s and %s own different keys); open one watch per owner", owner, o))
			return
		}
	}
	if owner == "" || owner == n.cfg.NodeID {
		n.inner.ServeHTTP(w, r)
		return
	}
	base := n.mem.URL(owner)
	if base == "" {
		// Owner known but unreachable by URL: serving locally degrades to
		// replica-backed answers rather than refusing the stream.
		n.inner.ServeHTTP(w, r)
		return
	}
	u := base + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		u += "?" + q
	}
	n.met.watchRedirects.Add(1)
	http.Redirect(w, r, u, http.StatusTemporaryRedirect)
}

// routeHistory routes a history query to the key's current primary —
// history lives in the primary's store, replicas keep only the newest
// estimate per key.
func (n *Node) routeHistory(w http.ResponseWriter, r *http.Request) {
	key, err := server.ParseStateKey(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if r.Header.Get(forwardedHeader) != "" {
		n.inner.ServeHTTP(w, r)
		return
	}
	for _, o := range n.ringNow().Owners(key, n.cfg.ReplicationFactor, n.mem.Serving) {
		if o == n.cfg.NodeID {
			n.inner.ServeHTTP(w, r)
			return
		}
		if n.forward(w, r, o) == nil {
			return
		}
	}
	server.WriteError(w, http.StatusBadGateway, "no reachable owner for this key")
}

// forward proxies one GET to a peer, marking the hop so the peer serves
// locally. It writes nothing on transport errors or peer 5xx, so the
// caller can try the next owner.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, peerID string) error {
	base := n.mem.URL(peerID)
	if base == "" {
		return fmt.Errorf("cluster: no URL for node %s", peerID)
	}
	u := base + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		u += "?" + q
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set(forwardedHeader, "1")
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		n.met.forwardErrors.Add(1)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= http.StatusInternalServerError {
		io.Copy(io.Discard, resp.Body)
		n.met.forwardErrors.Add(1)
		return fmt.Errorf("cluster: node %s answered %s", peerID, resp.Status)
	}
	// Buffer the whole body before committing the response: a peer dying
	// mid-stream must degrade to the next owner or the local replica, not
	// surface as a torn 200 to the client.
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		n.met.forwardErrors.Add(1)
		return fmt.Errorf("cluster: node %s body: %w", peerID, err)
	}
	for _, h := range []string{"Content-Type", "ETag", "Cache-Control", "Retry-After", server.HealthHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	n.met.forwards.Add(1)
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
	return nil
}

// routeSnapshot scatter-gathers the whole-city snapshot: this node's
// local contribution merged with every alive peer's, newest estimate
// per key, under one merged ETag and the worst health across the merged
// keys. A forwarded request gets the local contribution alone.
func (n *Node) routeSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(forwardedHeader) != "" {
		server.WriteSnapshot(w, r, n.localSnapDoc())
		return
	}
	docs := append([]server.SnapshotDoc{n.localSnapDoc()}, n.peerSnapshots(r.Context())...)
	server.WriteSnapshot(w, r, mergeSnapshots(docs...))
}

// peerSnapshots fetches every alive peer's local snapshot contribution.
// An unreachable peer is skipped: its keys are covered by whatever
// replicas the reachable nodes hold — best effort, never a 5xx.
func (n *Node) peerSnapshots(ctx context.Context) []server.SnapshotDoc {
	var docs []server.SnapshotDoc
	for _, mb := range n.mem.View() {
		if mb.ID == n.cfg.NodeID || mb.State != StateAlive || mb.URL == "" {
			continue
		}
		doc, err := n.fetchSnap(ctx, mb.URL)
		if err != nil {
			n.met.forwardErrors.Add(1)
			continue
		}
		n.met.forwards.Add(1)
		docs = append(docs, doc)
	}
	return docs
}

// fetchSnap pulls one peer's local snapshot contribution.
func (n *Node) fetchSnap(ctx context.Context, base string) (server.SnapshotDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/snapshot", nil)
	if err != nil {
		return server.SnapshotDoc{}, err
	}
	req.Header.Set(forwardedHeader, "1")
	resp, err := n.client.Do(req)
	if err != nil {
		return server.SnapshotDoc{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return server.SnapshotDoc{}, fmt.Errorf("cluster: snapshot fetch: %s", resp.Status)
	}
	return decodeSnapshot(resp.Body)
}

// decodeSnapshot reads a peer's /v1/snapshot body. Entries are checked
// when they are merged, not here: see newestByKey.
func decodeSnapshot(r io.Reader) (server.SnapshotDoc, error) {
	var doc server.SnapshotDoc
	err := json.NewDecoder(io.LimitReader(r, 64<<20)).Decode(&doc)
	return doc, err
}

// localSnapDoc is this node's snapshot contribution: the server's own
// cached snapshot (health overrides already applied) merged with the
// replicated records of keys this node now primaries but has not yet
// promoted — during the failover window the city view must not lose a
// dead node's approaches.
func (n *Node) localSnapDoc() server.SnapshotDoc {
	ring := n.ringNow()
	now := n.srv.StreamNow()
	var adopted server.SnapshotDoc
	for k, rec := range n.newestReplicas(func(k mapmatch.Key) bool {
		return ring.Primary(k, n.mem.Serving) == n.cfg.NodeID
	}) {
		adopted.Approaches = append(adopted.Approaches, server.ApproachFromEstimate(k, staleEstimate(rec, now)))
	}
	return mergeSnapshots(n.srv.Snapshot(), adopted)
}

// mergeSnapshots folds snapshot documents into one city view in the
// server's approach order, with the newest stream clock and, per key,
// the entry newestByKey keeps.
func mergeSnapshots(docs ...server.SnapshotDoc) server.SnapshotDoc {
	byKey := newestByKey(docs)
	merged := server.SnapshotDoc{Approaches: make([]server.SnapshotApproach, 0, len(byKey))}
	for _, doc := range docs {
		merged.Now = max(merged.Now, doc.Now)
	}
	for _, aj := range byKey {
		merged.Approaches = append(merged.Approaches, aj)
	}
	server.SortApproaches(merged.Approaches)
	return merged
}

// newestByKey keeps, per key, the entry with the newest window — the
// earlier document's on a tie, so a node's own answer beats a copy of
// it. An entry whose approach the server's parser refuses names no key
// and is dropped; the rest carry the approach's canonical name.
func newestByKey(docs []server.SnapshotDoc) map[mapmatch.Key]server.SnapshotApproach {
	byKey := make(map[mapmatch.Key]server.SnapshotApproach)
	for _, doc := range docs {
		for _, aj := range doc.Approaches {
			k, err := aj.Key()
			if err != nil {
				continue
			}
			if old, ok := byKey[k]; ok && !newer(aj.WindowEnd, old.WindowEnd) {
				continue
			}
			aj.Approach = k.Approach.String()
			byKey[k] = aj
		}
	}
	return byKey
}

// handleGossip merges a peer's pushed view and answers with ours.
// Receiving gossip is first-hand evidence the sender is alive.
func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	var msg gossipMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&msg); err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if n.mem.Merge(msg.Members) {
		n.rebuildRing()
	}
	if msg.From != "" {
		n.mem.NoteHeard(msg.From)
	}
	n.handleDeparted()
	n.syncOwnership()
	server.WriteJSON(w, http.StatusOK, n.mem.View())
}

// handleWAL streams this node's WAL records after the ?from= sequence
// in the store's CRC-framed wire encoding — replication is literally
// segment shipping. Three optional parameters serve the membership
// protocol: ?peer= identifies the puller so its cursor is recorded as a
// replication ack (the under-replication scan counts those acks);
// ?owned_by= filters the export to the named member's key slice under
// post-join placement (the join bulk pull — steady-state tails stay
// unfiltered and the client applies its own replica-set filter, so
// cursors keep advancing over foreign keys); ?bulk=1 routes the bytes
// through the rebalance throttle.
func (n *Node) handleWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from := uint64(0)
	if s := q.Get("from"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad from %q", s))
			return
		}
		from = v
	}
	if peer := q.Get("peer"); peer != "" {
		n.mu.Lock()
		if from > n.ackSeq[peer] {
			n.ackSeq[peer] = from
		}
		n.mu.Unlock()
	}
	var keep func(store.Record) bool
	if ownedBy := q.Get("owned_by"); ownedBy != "" {
		ring := n.ringNow()
		future := func(id string) bool { return id == ownedBy || n.mem.Serving(id) }
		keep = func(rec store.Record) bool {
			return ring.Primary(rec.Key(), future) == ownedBy
		}
	}
	out := io.Writer(w)
	if q.Get("bulk") == "1" {
		out = n.throttleBulk(out)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, _, err := n.st.StreamSinceFunc(from, keep, out); err != nil {
		// Headers are gone; the client's frame CRC catches the torn tail.
		n.cfg.Logf("cluster: node %s wal stream: %v", n.cfg.NodeID, err)
	}
}

// handleCkpt serves the replica bootstrap: the node's current merged
// engine state plus the WAL cursor it reflects. The cursor is sampled
// *before* the state export so a concurrent append is re-delivered by
// the tail rather than lost between the two.
// Checkpoint serves are bulk by nature; ?bulk=1 (set by every replica
// prime) routes the body through the rebalance throttle.
func (n *Node) handleCkpt(w http.ResponseWriter, r *http.Request) {
	lastSeq := n.st.LastSeq()
	b, err := store.EncodeState(n.srv.ExportState(), lastSeq)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("bulk") == "1" {
		n.throttleBulk(w).Write(b)
		return
	}
	w.Write(b)
}

// handleNotify nudges the pull loop for the named peer — a primary just
// appended and its replicas should not wait out the pull interval.
func (n *Node) handleNotify(w http.ResponseWriter, r *http.Request) {
	var msg struct {
		Node string `json:"node"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&msg); err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	n.mu.Lock()
	pr := n.replicas[msg.Node]
	n.mu.Unlock()
	if pr != nil {
		select {
		case pr.nudge <- struct{}{}:
		default:
		}
	}
	w.WriteHeader(http.StatusNoContent)
}
