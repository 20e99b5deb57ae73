package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/experiments"
	"taxilight/internal/faults"
	"taxilight/internal/ingest"
	"taxilight/internal/mapmatch"
	"taxilight/internal/server"
	"taxilight/internal/store"
	"taxilight/internal/trace"
)

// The kill-one-node proof, end to end: three lightd nodes with R=2
// replication ingest one city's trace — one of them through a hostile
// proxy — and partway through the stream one node is killed without
// ceremony. The test hammers the survivors throughout and requires that
// every client response stays 200/304 with health no worse than
// "stale", that admission stays exactly-once per node, and that the
// survivors' estimates deep-equal oracle runs of the same trace: zero
// lost estimates.
//
// The oracle is per node identity, not a single full-city run. Stop
// extraction is global over an estimation round's view (see
// core.BuildStopIndex): a taxi's stationary runs are segmented from its
// whole timeline across every key in the view, so a key's estimate
// depends on which other keys' records the engine holds. Equality is
// therefore only meaningful against a single-process run that admitted
// exactly the same records — each oracle carries the same ownership
// filter as its node, and the oracles for the survivors flip to the
// post-failover ownership at the same record index the nodes do.
//
// That index is pinned by pausing the tape: the feed is split at the
// kill point, the node dies with the first part fully admitted, and the
// rest is held until the survivors have detected the death and
// promoted. Failure detection under continuous flow is wall-clock
// timing and would make the flip index irreproducible; the client-side
// guarantees during detection (immediate answers, never worse than
// stale) are still exercised live by the hammer, which runs across the
// kill without interruption.
//
// Determinism otherwise rests on properties pinned elsewhere: BatchSize
// 1 makes per-engine call order a pure function of admitted record
// order; the engine keeps a key dirty while buffered records lie beyond
// the round window, so final estimates depend only on the admitted
// record set and the round grid; and the ring co-locates perpendicular
// approaches, so identification context never crosses node boundaries.
// History correction is node-local learned state that replication
// deliberately does not ship, so the proof runs with UseHistory off.

// e2eWorld builds the city. The body colour is blanked so torn lines
// can never parse (see the server chaos soak).
func e2eWorld(t testing.TB) (*experiments.World, []trace.Record) {
	t.Helper()
	cfg := experiments.DefaultWorldConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Taxis = 150
	cfg.Horizon = 2400
	if os.Getenv("TAXILIGHT_CLUSTER_SOAK") != "" {
		cfg.Taxis = 220
		cfg.Horizon = 4800
	}
	w, err := experiments.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, len(w.Records))
	copy(recs, w.Records)
	for i := range recs {
		recs[i].Color = ""
	}
	return w, recs
}

// streamT maps a record's timestamp onto the engines' second axis.
func streamT(r trace.Record) float64 {
	return r.Time.Sub(experiments.Epoch).Seconds()
}

func csvPayload(recs []trace.Record) []byte {
	var sb strings.Builder
	for _, r := range recs {
		sb.WriteString(r.MarshalCSV())
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// e2eReplayFeeder serves the full payload to every accepted connection
// and closes it.
func e2eReplayFeeder(t testing.TB, payload []byte) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Write(payload)
			}(conn)
		}
	}()
	return ln
}

// pacedFeeder holds a slice of the trace behind a gate, then broadcasts
// it to every connected client at a fixed stream-time speedup, so the
// surrounding choreography controls exactly which records each server
// has admitted at each step.
type pacedFeeder struct {
	ln      net.Listener
	mu      sync.Mutex
	conns   []net.Conn
	release chan struct{}
	done    chan struct{}
}

func newPacedFeeder(t testing.TB) *pacedFeeder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pf := &pacedFeeder{ln: ln, release: make(chan struct{}), done: make(chan struct{})}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			pf.mu.Lock()
			pf.conns = append(pf.conns, conn)
			pf.mu.Unlock()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return pf
}

// run waits for the gate, then paces the records out to every client.
// A client whose write fails (a killed node's closed socket) is
// dropped; the broadcast continues for the rest.
func (pf *pacedFeeder) run(recs []trace.Record, speedup float64) {
	defer close(pf.done)
	<-pf.release
	if len(recs) == 0 {
		return
	}
	base := streamT(recs[0])
	wall := time.Now()
	for _, r := range recs {
		rt := streamT(r)
		if d := time.Duration((rt-base)/speedup*float64(time.Second)) - time.Since(wall); d > 0 {
			time.Sleep(d)
		}
		line := []byte(r.MarshalCSV() + "\n")
		pf.mu.Lock()
		alive := pf.conns[:0]
		for _, c := range pf.conns {
			c.SetWriteDeadline(time.Now().Add(2 * time.Second))
			if _, err := c.Write(line); err == nil {
				alive = append(alive, c)
			} else {
				c.Close()
			}
		}
		pf.conns = alive
		pf.mu.Unlock()
	}
	pf.mu.Lock()
	for _, c := range pf.conns {
		c.Close()
	}
	pf.conns = nil
	pf.mu.Unlock()
}

// e2eServerConfig is the shared posture of every oracle and node:
// deterministic admission (BatchSize 1), a fast cadence, quarantine off
// (a failover window must degrade to stale, never to quarantined) and
// history correction off (node-local state the replication contract
// does not ship).
func e2eServerConfig(st *store.Store) server.Config {
	cfg := server.DefaultConfig()
	cfg.Shards = 2
	cfg.BatchSize = 1
	cfg.FlushEvery = 20 * time.Millisecond
	cfg.MaxInFlight = 0
	cfg.StaleFeedAfter = 0
	cfg.CheckpointInterval = 0
	cfg.Store = st
	cfg.Realtime.Window = 600
	cfg.Realtime.Interval = 150
	cfg.Realtime.UseHistory = false
	cfg.Realtime.Faults.QuarantineAfter = 0
	cfg.Ingest.BackoffMin = time.Millisecond
	cfg.Ingest.BackoffMax = 10 * time.Millisecond
	cfg.Ingest.FailureBudget = 0
	cfg.Ingest.Seed = 1
	return cfg
}

// e2eNode is one cluster member plus its ingest lifecycle.
type e2eNode struct {
	id     string
	url    string
	srv    *server.Server
	st     *store.Store
	node   *Node
	hs     *http.Server
	cancel context.CancelFunc
	done   chan error
}

// kill is the SIGKILL stand-in: sockets die, loops stop, nothing is
// handed off and no leave is gossiped.
func (n *e2eNode) kill() {
	n.hs.Close()
	n.cancel()
	n.node.Stop()
}

// e2eOracle is a single-process run wearing one node's ownership
// filter: it admits exactly the records that node admits, with no
// cluster layer in the way. For a survivor the filter flips to the
// post-failover ownership at the pinned handover index.
type e2eOracle struct {
	id      string
	srv     *server.Server
	flipped atomic.Bool
}

func waitUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// srcStatus returns the named source's supervisor status. A source the
// supervisor has not registered yet reads as all-zero.
func srcStatus(t *testing.T, srv *server.Server, name string) ingest.SourceStatus {
	t.Helper()
	for _, st := range srv.SourceStatuses() {
		if st.Name == name {
			return st
		}
	}
	return ingest.SourceStatus{}
}

// waitAdmitted waits for a source to admit exactly want records; one
// record too many is an immediate failure (double ingest). Admission is
// counted at the dedup gate, before the ownership filter, so the count
// is the same for every server on the same feed.
func waitAdmitted(t *testing.T, label string, srv *server.Server, name string, want int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%s source %s to admit %d records", label, name, want), 240*time.Second, func() bool {
		got := srcStatus(t, srv, name).Records
		if got > int64(want) {
			t.Fatalf("%s source %s admitted %d records, want %d — double ingest", label, name, got, want)
		}
		return got == int64(want)
	})
}

func advanceAll(t *testing.T, srv *server.Server, to float64) {
	t.Helper()
	for _, e := range srv.Engines() {
		if _, err := e.Advance(to); err != nil {
			t.Fatalf("advance to %.3f: %v", to, err)
		}
	}
}

// engineEstimates merges the published estimates across a server's
// shards.
func engineEstimates(srv *server.Server) map[mapmatch.Key]core.Estimate {
	out := map[mapmatch.Key]core.Estimate{}
	for _, e := range srv.Engines() {
		for k, est := range e.Snapshot() {
			out[k] = est
		}
	}
	return out
}

// hammer issues client traffic against the survivors for the whole
// failover window and records any response worse than "stale".
type hammer struct {
	client    *http.Client
	urls      []string
	cKeys     []mapmatch.Key
	otherKeys []mapmatch.Key
	phase1End map[mapmatch.Key]float64
	// freshAfter is the kill's stream position: an answer only counts
	// as post-failover fresh when its estimation window reaches past
	// it, which no round run before the kill can satisfy. Without this
	// a response forwarded to the dying node just before the kill, in
	// flight as the wall clock is stamped, would count.
	freshAfter float64

	killedNano      atomic.Int64 // wall time of the kill, 0 before
	firstAnswerNano atomic.Int64 // first 200 on a killed-node key after the kill
	firstFreshNano  atomic.Int64 // first such answer with fresh health

	stop chan struct{}
	wg   sync.WaitGroup

	mu        sync.Mutex
	errs      []string
	responses int
	stale     int
	etags     map[string]string
}

func (h *hammer) fail(format string, args ...any) {
	h.mu.Lock()
	if len(h.errs) < 8 {
		h.errs = append(h.errs, fmt.Sprintf(format, args...))
	}
	h.mu.Unlock()
}

type hammerStateDoc struct {
	Estimate *struct {
		WindowEnd float64 `json:"window_end_s"`
	} `json:"estimate"`
}

func (h *hammer) checkState(target string, k mapmatch.Key, cKey bool) {
	resp, err := h.client.Get(target + pathFor(k))
	if err != nil {
		h.fail("GET %s%s: %v", target, pathFor(k), err)
		return
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		h.fail("GET %s%s: torn body: %v", target, pathFor(k), rerr)
		return
	}
	if resp.StatusCode != http.StatusOK {
		h.fail("GET %s%s = %d %s", target, pathFor(k), resp.StatusCode, body)
		return
	}
	hh := resp.Header.Get(server.HealthHeader)
	if hh != "" && hh != "stale" {
		h.fail("GET %s%s health %q — worse than stale", target, pathFor(k), hh)
		return
	}
	var doc hammerStateDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		h.fail("GET %s%s: unparseable body %q: %v", target, pathFor(k), body, err)
		return
	}
	h.mu.Lock()
	h.responses++
	if hh == "stale" {
		h.stale++
	}
	h.mu.Unlock()
	if !cKey {
		return
	}
	if doc.Estimate == nil {
		h.fail("GET %s%s: no estimate for a replicated key", target, pathFor(k))
		return
	}
	if end := h.phase1End[k]; doc.Estimate.WindowEnd+1e-9 < end {
		h.fail("GET %s%s: estimate regressed to window end %.3f < replicated %.3f",
			target, pathFor(k), doc.Estimate.WindowEnd, end)
	}
	if h.killedNano.Load() != 0 {
		now := time.Now().UnixNano()
		h.firstAnswerNano.CompareAndSwap(0, now)
		if hh == "" && doc.Estimate.WindowEnd > h.freshAfter {
			h.firstFreshNano.CompareAndSwap(0, now)
		}
	}
}

func (h *hammer) checkSnapshot(target string) {
	req, _ := http.NewRequest(http.MethodGet, target+"/v1/snapshot", nil)
	h.mu.Lock()
	if et := h.etags[target]; et != "" {
		req.Header.Set("If-None-Match", et)
	}
	h.mu.Unlock()
	resp, err := h.client.Do(req)
	if err != nil {
		h.fail("GET %s/v1/snapshot: %v", target, err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
		h.fail("GET %s/v1/snapshot = %d", target, resp.StatusCode)
		return
	}
	if hh := resp.Header.Get(server.HealthHeader); hh != "" && hh != "stale" {
		h.fail("GET %s/v1/snapshot health %q — worse than stale", target, hh)
		return
	}
	h.mu.Lock()
	h.responses++
	if resp.StatusCode == http.StatusOK {
		h.etags[target] = resp.Header.Get("ETag")
	}
	h.mu.Unlock()
}

func (h *hammer) loop() {
	defer h.wg.Done()
	for i := 0; ; i++ {
		select {
		case <-h.stop:
			return
		default:
		}
		h.checkState(h.urls[i%2], h.cKeys[i%len(h.cKeys)], true)
		h.checkState(h.urls[(i+1)%2], h.otherKeys[i%len(h.otherKeys)], false)
		if i%10 == 0 {
			h.checkSnapshot(h.urls[i%2])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestClusterKillOneNodeE2E(t *testing.T) {
	w, recs := e2eWorld(t)
	horizon := w.Horizon
	cut := horizon / 2
	killAt := cut + 200
	const speedup = 160.0

	// The tape in three parts: p1 is bulk history, p2a runs live up to
	// the kill, p2b is everything after the handover index.
	var p1, p2a, p2b []trace.Record
	for _, r := range recs {
		switch ts := streamT(r); {
		case ts <= cut:
			p1 = append(p1, r)
		case ts <= killAt:
			p2a = append(p2a, r)
		default:
			p2b = append(p2b, r)
		}
	}
	if len(p1) == 0 || len(p2a) == 0 || len(p2b) == 0 {
		t.Fatalf("degenerate split: %d + %d + %d records", len(p1), len(p2a), len(p2b))
	}
	p1Payload := csvPayload(p1)

	// Phase-one feeders: a clean replay listener, and a flaky proxy in
	// front of it for node B.
	p1Feeder := e2eReplayFeeder(t, p1Payload)
	defer p1Feeder.Close()
	proxy, err := faults.NewFlakyProxy(faults.FlakyProxyConfig{
		Seed:            1,
		Target:          p1Feeder.Addr().String(),
		ChunkBytes:      1024,
		ResetProb:       0.001,
		CutProb:         0.001,
		StallProb:       0.002,
		StallMax:        20 * time.Millisecond,
		TrickleProb:     0.002,
		TrickleBytes:    32,
		TrickleDelay:    100 * time.Microsecond,
		MaxConnBytes:    int64(len(p1Payload) / 32),
		ConnBytesGrowth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	pacedA := newPacedFeeder(t)
	go pacedA.run(p2a, speedup)
	pacedB := newPacedFeeder(t)
	go pacedB.run(p2b, speedup)

	ids := []string{"A", "B", "C"}
	staticRing := NewRing(ids, 64)
	survivors := func(id string) bool { return id != "C" }
	liveSpec := ",p2a=tcp+dial://" + pacedA.ln.Addr().String() + ",p2b=tcp+dial://" + pacedB.ln.Addr().String()

	// The oracles: one clean single-process run per node identity,
	// wearing that node's ownership filter. C's oracle only ever sees
	// phase one; the survivors' oracles ride through the whole tape and
	// flip to post-failover ownership at the handover.
	oracles := make(map[string]*e2eOracle, len(ids))
	for _, id := range ids {
		srv, err := server.New(w.Matcher, e2eServerConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		o := &e2eOracle{id: id, srv: srv}
		srv.SetClusterHooks(server.ClusterHooks{KeyOwned: func(k mapmatch.Key) bool {
			if o.flipped.Load() {
				return staticRing.Primary(k, survivors) == o.id
			}
			return staticRing.Primary(k, nil) == o.id
		}})
		srv.Start()
		advanceAll(t, srv, 0.001)
		spec := "p1=tcp+dial://" + p1Feeder.Addr().String()
		if id != "C" {
			spec += liveSpec
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func(s *server.Server) { done <- s.RunSources(ctx, spec) }(srv)
		t.Cleanup(func() {
			cancel()
			<-done
			o.srv.StopIngest()
		})
		oracles[id] = o
	}

	// The cluster: three nodes, R=2. The failure detector is slack —
	// detection happens while the tape is paused, so a long FailAfter
	// costs nothing and rules out spurious deaths under bulk-ingest load.
	peers := make(map[string]string, len(ids))
	lns := make(map[string]net.Listener, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[id] = ln
		peers[id] = "http://" + ln.Addr().String()
	}
	p1Specs := map[string]string{
		"A": p1Feeder.Addr().String(),
		"B": proxy.Addr(),
		"C": p1Feeder.Addr().String(),
	}
	nodes := make(map[string]*e2eNode, len(ids))
	for _, id := range ids {
		scfg := store.DefaultConfig()
		scfg.SyncEvery = 1
		scfg.CompactEvery = 0
		st, err := store.Open(t.TempDir(), scfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(w.Matcher, e2eServerConfig(st))
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(srv, st, Config{
			NodeID:            id,
			Peers:             peers,
			ReplicationFactor: 2,
			HeartbeatInterval: 50 * time.Millisecond,
			// Slack on purpose: under -race the bulk-ingest phase can
			// starve the gossip loops for seconds, and a spurious death
			// would fork the ownership history. Detection runs against a
			// paused tape, so the slack costs wall time, not coverage.
			FailAfter:    6 * time.Second,
			PullInterval: 25 * time.Millisecond,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		advanceAll(t, srv, 0.001)
		hs := &http.Server{Handler: node.Handler()}
		node.Start()
		go hs.Serve(lns[id])
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		spec := "p1=tcp+dial://" + p1Specs[id] + liveSpec
		go func(s *server.Server) { done <- s.RunSources(ctx, spec) }(srv)
		n := &e2eNode{id: id, url: peers[id], srv: srv, st: st, node: node, hs: hs, cancel: cancel, done: done}
		nodes[id] = n
		t.Cleanup(func() {
			n.hs.Close()
			n.node.Stop()
			n.cancel()
			<-n.done
			n.srv.StopIngest()
			n.st.Close()
		})
	}
	a, b, c := nodes["A"], nodes["B"], nodes["C"]

	// --- Phase 1: bulk-ingest the first half everywhere, exactly once.
	for _, run := range []struct {
		label string
		srv   *server.Server
	}{{"oracle-A", oracles["A"].srv}, {"oracle-B", oracles["B"].srv}, {"oracle-C", oracles["C"].srv},
		{"A", a.srv}, {"B", b.srv}, {"C", c.srv}} {
		waitAdmitted(t, run.label, run.srv, "p1", len(p1))
	}
	bst := srcStatus(t, b.srv, "p1")
	if bst.Reconnects < 3 || bst.Resumes < 1 || bst.DedupDropped == 0 {
		t.Fatalf("B's flaky feed saw reconnects=%d resumes=%d dedupDropped=%d — the proxy never bit",
			bst.Reconnects, bst.Resumes, bst.DedupDropped)
	}
	if d := proxy.Stats().Disconnects(); d < 3 {
		t.Fatalf("proxy disconnects = %d, want >= 3", d)
	}
	time.Sleep(300 * time.Millisecond) // drain the dispatch pipelines
	for _, id := range ids {
		advanceAll(t, oracles[id].srv, cut+0.25)
		advanceAll(t, nodes[id].srv, cut+0.25)
	}

	// Replication catch-up: every node's WAL fully mirrored on its peers.
	waitUntil(t, "phase-1 replication", 60*time.Second, func() bool {
		for _, x := range nodes {
			seq := x.st.LastSeq()
			if seq == 0 {
				return false
			}
			for _, y := range nodes {
				if y.id != x.id && y.node.replicaSeq(x.id) < seq {
					return false
				}
			}
		}
		return true
	})

	// Phase-1 checkpoint: each node's estimates equal its oracle's, key
	// for key, in both directions.
	phase1End := map[mapmatch.Key]float64{}
	var cKeys, otherKeys []mapmatch.Key
	phase1 := map[mapmatch.Key]bool{}
	for _, id := range ids {
		want := engineEstimates(oracles[id].srv)
		got := engineEstimates(nodes[id].srv)
		if len(want) == 0 {
			t.Fatalf("oracle %s published no estimates in phase 1", id)
		}
		for k, oe := range want {
			pe, ok := got[k]
			if !ok {
				t.Fatalf("phase 1: key %v missing on its primary %s", k, id)
			}
			if !reflect.DeepEqual(pe.Result, oe.Result) {
				t.Fatalf("phase 1: key %v diverged on %s:\nnode:   %+v\noracle: %+v", k, id, pe.Result, oe.Result)
			}
			phase1[k] = true
			phase1End[k] = oe.Result.WindowEnd
			if id == "C" {
				cKeys = append(cKeys, k)
			} else {
				otherKeys = append(otherKeys, k)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Fatalf("phase 1: node %s published %v, unknown to its oracle", id, k)
			}
		}
	}
	if len(cKeys) == 0 || len(otherKeys) == 0 {
		t.Fatalf("degenerate ownership: %d keys on C, %d elsewhere", len(cKeys), len(otherKeys))
	}
	t.Logf("phase 1: %d estimates equal across %d C-owned and %d survivor-owned keys (%d records, %d via chaos proxy)",
		len(phase1), len(cKeys), len(otherKeys), len(p1), bst.Records)

	// --- Phase 2a: run the tape live up to the kill point, with client
	// traffic hammering the survivors from here to the end.
	h := &hammer{
		client:     &http.Client{Timeout: 5 * time.Second},
		urls:       []string{a.url, b.url},
		cKeys:      cKeys,
		otherKeys:  otherKeys,
		phase1End:  phase1End,
		freshAfter: killAt,
		stop:       make(chan struct{}),
		etags:      map[string]string{},
	}
	h.wg.Add(1)
	go h.loop()
	close(pacedA.release)
	<-pacedA.done
	for _, run := range []struct {
		label string
		srv   *server.Server
	}{{"oracle-A", oracles["A"].srv}, {"oracle-B", oracles["B"].srv}, {"A", a.srv}, {"B", b.srv}, {"C", c.srv}} {
		waitAdmitted(t, run.label, run.srv, "p2a", len(p2a))
	}
	if p := a.node.met.promotions.Load() + b.node.met.promotions.Load() + c.node.met.promotions.Load(); p != 0 {
		t.Fatalf("%d promotions before the kill — the failure detector flapped under load", p)
	}
	time.Sleep(200 * time.Millisecond)

	// --- The kill. C dies with every pre-kill record admitted but
	// nothing handed off; whatever its replicas hold is what survives.
	killWall := time.Now()
	h.killedNano.Store(killWall.UnixNano())
	c.kill()

	waitUntil(t, "survivors to declare C dead", 60*time.Second, func() bool {
		return !a.node.mem.Alive("C") && !b.node.mem.Alive("C")
	})
	finalOwner := func(k mapmatch.Key) string { return staticRing.Primary(k, survivors) }
	waitUntil(t, "every handed-over key to be promoted on its new owner", 60*time.Second, func() bool {
		for _, k := range cKeys {
			if _, ok := nodes[finalOwner(k)].srv.EstimateFor(k); !ok {
				return false
			}
		}
		return true
	})
	if !a.node.mem.Alive("B") || !b.node.mem.Alive("A") {
		t.Fatal("a survivor declared the other dead — the failure detector flapped")
	}
	detectWall := time.Since(killWall)
	t.Logf("killed C at stream %.1f; death detected and all keys promoted %.0f ms later",
		killAt, float64(detectWall)/float64(time.Millisecond))

	// --- Phase 2b: flip the survivor oracles to post-failover ownership
	// at exactly this index, then run the rest of the tape.
	oracles["A"].flipped.Store(true)
	oracles["B"].flipped.Store(true)
	close(pacedB.release)
	<-pacedB.done
	for _, run := range []struct {
		label string
		srv   *server.Server
	}{{"oracle-A", oracles["A"].srv}, {"oracle-B", oracles["B"].srv}, {"A", a.srv}, {"B", b.srv}} {
		waitAdmitted(t, run.label, run.srv, "p2b", len(p2b))
	}
	time.Sleep(300 * time.Millisecond)
	for _, id := range []string{"A", "B"} {
		advanceAll(t, oracles[id].srv, horizon+0.25)
		advanceAll(t, nodes[id].srv, horizon+0.25)
	}

	// The hammer must observe the handed-over keys refresh: a response
	// with no health cap from a survivor's own estimation round.
	waitUntil(t, "a fresh answer on a handed-over key", 60*time.Second, func() bool {
		return h.firstFreshNano.Load() != 0
	})
	close(h.stop)
	h.wg.Wait()
	h.mu.Lock()
	errs, responses, stale := h.errs, h.responses, h.stale
	h.mu.Unlock()
	for _, e := range errs {
		t.Errorf("hammer: %s", e)
	}
	// The floor is modest: under -race a request through the forwarding
	// path is slow and the hammer is throughput-limited, not idle.
	if responses < 20 {
		t.Fatalf("hammer made only %d checked responses", responses)
	}
	if stale == 0 {
		t.Fatal("hammer never saw a stale answer — the failover window was not exercised")
	}
	firstAnswer := time.Duration(h.firstAnswerNano.Load() - killWall.UnixNano())
	firstFresh := time.Duration(h.firstFreshNano.Load() - killWall.UnixNano())
	t.Logf("failover: first 200 on a handed-over key %.0f ms after the kill, first fresh estimate after %.2f s (%d responses, %d stale)",
		float64(firstAnswer)/float64(time.Millisecond), firstFresh.Seconds(), responses, stale)

	// --- Final: zero lost estimates. Every key its oracle estimated
	// must be bitwise-equal on the surviving node; a key the node serves
	// beyond its oracle must be a handed-over key whose post-kill
	// traffic never sustained a local round — served from the replica,
	// never older than what phase 1 replicated.
	strictC, lenientC := 0, 0
	for _, id := range []string{"A", "B"} {
		want := engineEstimates(oracles[id].srv)
		got := engineEstimates(nodes[id].srv)
		for k, oe := range want {
			ne, ok := got[k]
			if !ok {
				t.Errorf("final: key %v lost on %s after failover", k, id)
				continue
			}
			if !reflect.DeepEqual(ne.Result, oe.Result) {
				t.Errorf("final: key %v diverged on %s:\nnode:   %+v\noracle: %+v", k, id, ne.Result, oe.Result)
				continue
			}
			if staticRing.Primary(k, nil) == "C" {
				strictC++
			}
		}
		for k, ne := range got {
			if _, ok := want[k]; ok {
				continue
			}
			if staticRing.Primary(k, nil) != "C" {
				t.Errorf("final: node %s serves %v, unknown to its oracle", id, k)
				continue
			}
			lenientC++
			if ne.Result.WindowEnd+1e-9 < phase1End[k] {
				t.Errorf("final: key %v regressed below its replicated estimate", k)
			}
		}
	}
	// Nothing estimated before the kill may vanish.
	for k := range phase1 {
		if _, ok := nodes[finalOwner(k)].srv.EstimateFor(k); !ok {
			t.Errorf("final: key %v lost after failover (owner %s)", k, finalOwner(k))
		}
	}
	if strictC == 0 {
		t.Fatal("no handed-over key was provable bitwise — the kill proved nothing")
	}
	if lenientC > len(cKeys)/2 {
		t.Fatalf("%d of %d handed-over keys had no post-handover round — the comparison is mostly vacuous", lenientC, len(cKeys))
	}
	t.Logf("final: survivors deep-equal their oracles (%d handed-over keys exact, %d served from replicas)",
		strictC, lenientC)
}
