package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/server"
	"taxilight/internal/store"
	"taxilight/internal/trace"
)

// The kill-then-rejoin proof, end to end. A three-node cluster ingests
// a city's trace; partway through one node is killed without ceremony,
// the survivors promote its keys, and a little later a *fresh* node —
// new identity, empty store — joins the running cluster through gossip,
// bulk-pulls its slice under the donors' rebalance throttle, and cuts
// over while live traffic keeps flowing. The test requires that the
// under-replication gauge rises after the kill and drains to zero after
// the join, that admission stays exactly-once per node even while the
// bulk handoff competes with live ingest, that a /v1/watch subscriber
// on a moved key is evicted under reason "moved" and redirected to the
// joiner, and that at the end every node's estimates deep-equal a
// per-node-identity oracle run: zero lost estimates, with R replicas of
// every pre-kill key restored across the new membership.
//
// The oracle construction follows the kill drill (see
// chaos_e2e_test.go): stop extraction is global over an engine's view,
// so equality is only meaningful against a single-process run that
// admitted exactly the same records. Each ownership transition —
// failover at the kill, handoff at the join cutover — happens against a
// paused tape, and the surviving oracles step through three ownership
// stages at exactly the record indexes their nodes do. The joiner's
// oracle wears the final ownership from the start and only ever sees
// the post-join tape: the keys it adopts at cutover arrive primed from
// replicas, and any later estimate for them is a pure function of
// post-join admissions, which is precisely what that oracle runs.
type rejoinOracle struct {
	id    string
	srv   *server.Server
	stage atomic.Int32
}

func TestClusterKillThenRejoinE2E(t *testing.T) {
	w, recs := e2eWorld(t)
	horizon := w.Horizon
	cut := horizon / 2
	killAt := cut + 200
	rejoinAt := killAt + 200
	const speedup = 160.0

	// The tape in four parts: p1 is bulk history, p2a runs live up to the
	// kill, p2b runs across the under-replicated window up to the join
	// cutover, p2c is everything after the joiner serves.
	var p1, p2a, p2b, p2c []trace.Record
	for _, r := range recs {
		switch ts := streamT(r); {
		case ts <= cut:
			p1 = append(p1, r)
		case ts <= killAt:
			p2a = append(p2a, r)
		case ts <= rejoinAt:
			p2b = append(p2b, r)
		default:
			p2c = append(p2c, r)
		}
	}
	if len(p1) == 0 || len(p2a) == 0 || len(p2b) == 0 || len(p2c) == 0 {
		t.Fatalf("degenerate split: %d + %d + %d + %d records", len(p1), len(p2a), len(p2b), len(p2c))
	}
	p1Feeder := e2eReplayFeeder(t, csvPayload(p1))
	defer p1Feeder.Close()
	pacedA := newPacedFeeder(t)
	go pacedA.run(p2a, speedup)
	pacedB := newPacedFeeder(t)
	go pacedB.run(p2b, speedup)
	pacedC := newPacedFeeder(t)
	go pacedC.run(p2c, speedup)

	// ring1 is the seed membership's ring, ring2 the post-join ring; the
	// joiner's vnodes on the live ring are invisible to routing until the
	// serving filter admits it, so ring1-over-survivors and ring2-over-
	// serving2 are exactly what the nodes compute at stages 1 and 2.
	ids := []string{"A", "B", "C"}
	ring1 := NewRing(ids, 64)
	ring2 := NewRing([]string{"A", "B", "C", "D"}, 64)
	survivors := func(id string) bool { return id == "A" || id == "B" }
	serving2 := func(id string) bool { return id != "C" }
	liveSpec := ",p2a=tcp+dial://" + pacedA.ln.Addr().String() +
		",p2b=tcp+dial://" + pacedB.ln.Addr().String() +
		",p2c=tcp+dial://" + pacedC.ln.Addr().String()

	// The oracles: one clean single-process run per node identity. C's
	// only ever sees phase one; D's wears the final ownership and only
	// dials the post-join tape; A's and B's step 0 -> 1 -> 2 at the
	// pinned indexes.
	oracles := make(map[string]*rejoinOracle, 4)
	for _, id := range []string{"A", "B", "C", "D"} {
		srv, err := server.New(w.Matcher, e2eServerConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		o := &rejoinOracle{id: id, srv: srv}
		var owned func(k mapmatch.Key) bool
		switch id {
		case "C":
			owned = func(k mapmatch.Key) bool { return ring1.Primary(k, nil) == "C" }
		case "D":
			owned = func(k mapmatch.Key) bool { return ring2.Primary(k, serving2) == "D" }
		default:
			owned = func(k mapmatch.Key) bool {
				switch o.stage.Load() {
				case 0:
					return ring1.Primary(k, nil) == o.id
				case 1:
					return ring1.Primary(k, survivors) == o.id
				default:
					return ring2.Primary(k, serving2) == o.id
				}
			}
		}
		srv.SetClusterHooks(server.ClusterHooks{KeyOwned: owned})
		srv.Start()
		advanceAll(t, srv, 0.001)
		var spec string
		switch id {
		case "C":
			spec = "p1=tcp+dial://" + p1Feeder.Addr().String()
		case "D":
			spec = "p2c=tcp+dial://" + pacedC.ln.Addr().String()
		default:
			spec = "p1=tcp+dial://" + p1Feeder.Addr().String() + liveSpec
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

	// The seed cluster: three nodes, R=2, with the donors' rebalance
	// throttle armed so the join's bulk traffic runs through it.
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
	nodes := make(map[string]*e2eNode, len(ids))
	for _, id := range ids {
		scfg := store.DefaultConfig()
		scfg.SyncEvery = 1
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
			// Slack on purpose, as in the kill drill: detection runs against
			// a paused tape, so this costs wall time, not coverage.
			FailAfter:            6 * time.Second,
			PullInterval:         25 * time.Millisecond,
			RebalanceBytesPerSec: 512 << 10,
			Logf:                 t.Logf,
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
		spec := "p1=tcp+dial://" + p1Feeder.Addr().String() + liveSpec
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
	time.Sleep(300 * time.Millisecond)
	for _, id := range ids {
		advanceAll(t, oracles[id].srv, cut+0.25)
		advanceAll(t, nodes[id].srv, cut+0.25)
	}
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
	phase1End := map[mapmatch.Key]float64{}
	phase1 := map[mapmatch.Key]bool{}
	var cKeys, otherKeys []mapmatch.Key
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
	}
	if len(cKeys) == 0 || len(otherKeys) == 0 {
		t.Fatalf("degenerate ownership: %d keys on C, %d elsewhere", len(cKeys), len(otherKeys))
	}
	// The joiner's future slice, and a north-south key in it to pin a
	// watch subscriber on across the handoff.
	var dKeys []mapmatch.Key
	var watchKey mapmatch.Key
	haveWatchKey := false
	for k := range phase1 {
		if ring2.Primary(k, serving2) != "D" {
			continue
		}
		dKeys = append(dKeys, k)
		if !haveWatchKey && k.Approach == lights.NorthSouth {
			watchKey, haveWatchKey = k, true
		}
	}
	if len(dKeys) == 0 || !haveWatchKey {
		t.Fatalf("degenerate join slice: %d keys for the joiner (watch key found: %v)", len(dKeys), haveWatchKey)
	}
	t.Logf("phase 1: %d estimates equal; %d keys on C, %d will move to the joiner", len(phase1), len(cKeys), len(dKeys))

	// --- Phase 2a: live tape up to the kill, hammered throughout.
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

	// --- The kill. C dies with every pre-kill record admitted.
	killWall := time.Now()
	h.killedNano.Store(killWall.UnixNano())
	c.kill()
	waitUntil(t, "survivors to declare C dead", 60*time.Second, func() bool {
		return !a.node.mem.Alive("C") && !b.node.mem.Alive("C")
	})
	waitUntil(t, "every handed-over key to be promoted on its new owner", 60*time.Second, func() bool {
		for _, k := range cKeys {
			if _, ok := nodes[ring1.Primary(k, survivors)].srv.EstimateFor(k); !ok {
				return false
			}
		}
		return true
	})
	if !a.node.mem.Alive("B") || !b.node.mem.Alive("A") {
		t.Fatal("a survivor declared the other dead — the failure detector flapped")
	}
	t.Logf("killed C at stream %.1f; death detected and all keys promoted %.0f ms later",
		killAt, float64(time.Since(killWall))/float64(time.Millisecond))
	oracles["A"].stage.Store(1)
	oracles["B"].stage.Store(1)

	// --- Phase 2b: a fresh node D starts joining behind a barrier while
	// the tape runs across the under-replicated window. D's peer set is
	// the target membership; the incumbents' configurations never change —
	// they learn about it purely through gossip.
	barrier := make(chan struct{})
	dln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dPeers := map[string]string{"D": "http://" + dln.Addr().String()}
	for id, u := range peers {
		dPeers[id] = u
	}
	dscfg := store.DefaultConfig()
	dscfg.SyncEvery = 1
	dst, err := store.Open(t.TempDir(), dscfg)
	if err != nil {
		t.Fatal(err)
	}
	dsrv, err := server.New(w.Matcher, e2eServerConfig(dst))
	if err != nil {
		t.Fatal(err)
	}
	dnode, err := NewNode(dsrv, dst, Config{
		NodeID:            "D",
		Peers:             dPeers,
		ReplicationFactor: 2,
		HeartbeatInterval: 50 * time.Millisecond,
		FailAfter:         6 * time.Second,
		PullInterval:      25 * time.Millisecond,
		Join:              true,
		JoinBarrier:       barrier,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	dsrv.Start()
	advanceAll(t, dsrv, 0.001)
	dhs := &http.Server{Handler: dnode.Handler()}
	dnode.Start()
	go dhs.Serve(dln)
	dctx, dcancel := context.WithCancel(context.Background())
	ddone := make(chan error, 1)
	go func() { ddone <- dsrv.RunSources(dctx, "p2c=tcp+dial://"+pacedC.ln.Addr().String()) }()
	d := &e2eNode{id: "D", url: dPeers["D"], srv: dsrv, st: dst, node: dnode, hs: dhs, cancel: dcancel, done: ddone}
	t.Cleanup(func() {
		d.hs.Close()
		d.node.Stop()
		d.cancel()
		<-d.done
		d.srv.StopIngest()
		d.st.Close()
	})
	close(pacedB.release)

	// While the live tape persists new estimates, the survivors' repair
	// scans must observe under-replication: a key's newest record lands
	// before its successor's pull cursor acknowledges it. The scan is
	// driven here directly so the observation doesn't depend on the
	// repair ticker's phase.
	waitUntil(t, "the under-replication gauge to rise during the live tape", 60*time.Second, func() bool {
		a.node.scanRepair()
		b.node.scanRepair()
		return a.node.underrep.Load() > 0 || b.node.underrep.Load() > 0
	})
	<-pacedB.done
	for _, run := range []struct {
		label string
		srv   *server.Server
	}{{"oracle-A", oracles["A"].srv}, {"oracle-B", oracles["B"].srv}, {"A", a.srv}, {"B", b.srv}} {
		waitAdmitted(t, run.label, run.srv, "p2b", len(p2b))
	}
	time.Sleep(200 * time.Millisecond)

	// The joiner's bulk pull completes against the paused tape; it is
	// placed but not serving, and the donors report the pending handoff.
	waitUntil(t, "the joiner's bulk pull", 120*time.Second, func() bool { return d.node.joinReady() })
	if st := d.node.mem.SelfState(); st != StateJoining {
		t.Fatalf("joiner state before the barrier = %q, want joining", st)
	}
	waitUntil(t, "incumbents to place the joiner", 30*time.Second, func() bool {
		return a.node.mem.InPlacement("D") && b.node.mem.InPlacement("D")
	})
	if a.node.mem.Serving("D") || b.node.mem.Serving("D") {
		t.Fatal("a joining node counted as serving before cutover")
	}
	waitUntil(t, "the donors to report pending handoff", 30*time.Second, func() bool {
		a.node.scanRepair()
		b.node.scanRepair()
		return a.node.handoffPending.Load() > 0 || b.node.handoffPending.Load() > 0
	})

	// A subscriber watches a soon-to-move key on its current owner.
	watchOwner := nodes[ring1.Primary(watchKey, survivors)]
	watchURL := watchOwner.url + "/v1/watch?keys=" + itoa(int64(watchKey.Light)) + ":NS"
	wresp, err := (&http.Client{}).Get(watchURL)
	if err != nil {
		t.Fatalf("watch subscribe: %v", err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("watch subscribe = %d", wresp.StatusCode)
	}
	watchClosed := make(chan struct{})
	go func() {
		defer close(watchClosed)
		br := bufio.NewReader(wresp.Body)
		for {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
		}
	}()

	// --- The cutover, against the paused tape.
	close(barrier)
	waitUntil(t, "the join cutover to spread", 60*time.Second, func() bool {
		return d.node.mem.SelfState() == StateAlive &&
			a.node.mem.Serving("D") && b.node.mem.Serving("D")
	})
	if d.node.met.handoffKeys.Load() == 0 {
		t.Fatal("cutover adopted no keys")
	}
	for _, n := range []*e2eNode{a, b, d} {
		if n.node.Epoch() == 0 {
			t.Fatalf("node %s ownership epoch still zero after the join", n.id)
		}
	}
	select {
	case <-watchClosed:
	case <-time.After(15 * time.Second):
		t.Fatal("watch stream on the moved key never closed after cutover")
	}
	waitUntil(t, "the moved eviction metric", 30*time.Second, func() bool {
		_, _, body := httpGet(t, watchOwner.url+"/metrics")
		return strings.Contains(body, `lightd_watch_evictions_total{reason="moved"} 1`)
	})
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	re, err := noRedirect.Get(watchURL)
	if err != nil {
		t.Fatalf("watch reconnect: %v", err)
	}
	re.Body.Close()
	if re.StatusCode != http.StatusTemporaryRedirect || !strings.HasPrefix(re.Header.Get("Location"), d.url) {
		t.Fatalf("watch reconnect = %d Location %q, want 307 to %s", re.StatusCode, re.Header.Get("Location"), d.url)
	}

	// --- Phase 2c: the rest of the tape under the final ownership.
	oracles["A"].stage.Store(2)
	oracles["B"].stage.Store(2)
	close(pacedC.release)
	<-pacedC.done
	for _, run := range []struct {
		label string
		srv   *server.Server
	}{{"oracle-A", oracles["A"].srv}, {"oracle-B", oracles["B"].srv}, {"oracle-D", oracles["D"].srv},
		{"A", a.srv}, {"B", b.srv}, {"D", d.srv}} {
		waitAdmitted(t, run.label, run.srv, "p2c", len(p2c))
	}
	time.Sleep(300 * time.Millisecond)
	for _, id := range []string{"A", "B", "D"} {
		advanceAll(t, oracles[id].srv, horizon+0.25)
		if id == "D" {
			advanceAll(t, d.srv, horizon+0.25)
		} else {
			advanceAll(t, nodes[id].srv, horizon+0.25)
		}
	}

	// The hammer must have seen the handed-over keys refresh.
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
	if responses < 20 {
		t.Fatalf("hammer made only %d checked responses", responses)
	}
	if stale == 0 {
		t.Fatal("hammer never saw a stale answer — neither transition window was exercised")
	}
	t.Logf("hammer: %d responses, %d stale, first fresh %.2f s after the kill",
		responses, stale, time.Duration(h.firstFreshNano.Load()-killWall.UnixNano()).Seconds())

	// --- Final accounting on the survivors: every oracle key bitwise
	// equal; a node-only key must be a kill-orphan served from replicas,
	// never older than what phase 1 replicated.
	strictMoved, lenient := 0, 0
	for _, id := range []string{"A", "B"} {
		want := engineEstimates(oracles[id].srv)
		got := engineEstimates(nodes[id].srv)
		for k, oe := range want {
			ne, ok := got[k]
			if !ok {
				t.Errorf("final: key %v lost on %s", k, id)
				continue
			}
			if !reflect.DeepEqual(ne.Result, oe.Result) {
				t.Errorf("final: key %v diverged on %s:\nnode:   %+v\noracle: %+v", k, id, ne.Result, oe.Result)
				continue
			}
			if ring1.Primary(k, nil) == "C" || ring2.Primary(k, serving2) == "D" {
				strictMoved++
			}
		}
		for k, ne := range got {
			if _, ok := want[k]; ok {
				continue
			}
			if ring1.Primary(k, nil) != "C" {
				t.Errorf("final: node %s serves %v, unknown to its oracle", id, k)
				continue
			}
			lenient++
			if end, ok := phase1End[k]; ok && ne.Result.WindowEnd+1e-9 < end {
				t.Errorf("final: key %v regressed below its replicated estimate on %s", k, id)
			}
		}
	}
	if strictMoved == 0 {
		t.Fatal("no moved key was provable bitwise on a survivor — the drill proved nothing")
	}

	// The joined node: every key its oracle estimated from post-join
	// traffic must be bitwise equal; an adopted key with no post-join
	// round is replica-served, inside its slice and never regressed.
	wantD := engineEstimates(oracles["D"].srv)
	gotD := engineEstimates(d.srv)
	if len(wantD) == 0 {
		t.Fatal("oracle D published no estimates — the rejoin proved nothing")
	}
	strictD, lenientD := 0, 0
	for k, oe := range wantD {
		ne, ok := gotD[k]
		if !ok {
			t.Errorf("final: key %v missing on the joined node", k)
			continue
		}
		if !reflect.DeepEqual(ne.Result, oe.Result) {
			t.Errorf("final: key %v diverged on D:\nnode:   %+v\noracle: %+v", k, ne.Result, oe.Result)
			continue
		}
		strictD++
	}
	for k, ne := range gotD {
		if _, ok := wantD[k]; ok {
			continue
		}
		if ring2.Primary(k, serving2) != "D" {
			t.Errorf("final: the joined node serves %v outside its slice", k)
			continue
		}
		lenientD++
		if end, ok := phase1End[k]; ok && ne.Result.WindowEnd+1e-9 < end {
			t.Errorf("final: adopted key %v regressed below its replicated estimate", k)
		}
	}
	if strictD == 0 {
		t.Fatal("no post-join estimate on the joined node was provable bitwise")
	}
	t.Logf("final: %d moved keys exact on survivors (%d replica-served), joiner %d exact (%d adopted without a post-join round)",
		strictMoved, lenient, strictD, lenientD)

	// Zero lost estimates: every key estimated before the kill has an
	// estimate on its final primary.
	finalNodes := map[string]*e2eNode{"A": a, "B": b, "D": d}
	for k := range phase1 {
		if _, ok := finalNodes[ring2.Primary(k, serving2)].srv.EstimateFor(k); !ok {
			t.Errorf("final: key %v lost across the kill-then-rejoin (owner %s)", k, ring2.Primary(k, serving2))
		}
	}

	// R replicas restored: for every pre-kill key, the final primary
	// serves it and the final secondary holds it (as a replica record or
	// its own engine copy).
	waitUntil(t, "replication factor to be restored for every pre-kill key", 120*time.Second, func() bool {
		for k := range phase1 {
			owners := ring2.Owners(k, 2, serving2)
			if len(owners) != 2 {
				return false
			}
			if _, ok := finalNodes[owners[0]].srv.EstimateFor(k); !ok {
				return false
			}
			sec := finalNodes[owners[1]]
			if _, ok := sec.node.replicaRecord(k); ok {
				continue
			}
			if _, ok := sec.srv.EstimateFor(k); !ok {
				return false
			}
		}
		return true
	})

	// The under-replication gauge drains to zero and the handoff settles.
	waitUntil(t, "the under-replication gauge to drain", 120*time.Second, func() bool {
		for _, n := range finalNodes {
			n.node.scanRepair()
			if n.node.underrep.Load() != 0 || n.node.handoffPending.Load() != 0 {
				return false
			}
		}
		return true
	})
	if a.node.underrepPeak.Load() == 0 && b.node.underrepPeak.Load() == 0 {
		t.Fatal("the under-replication peak never rose")
	}

	// The donors' rebalance throttle carried the bulk traffic.
	if tb := a.node.rebal.throttledBytes.Load() + b.node.rebal.throttledBytes.Load(); tb == 0 {
		t.Fatal("no bulk bytes passed the rebalance throttle")
	}
	_, _, body := httpGet(t, a.url+"/metrics")
	if !strings.Contains(body, "lightd_cluster_rebalance_throttled_bytes_total") {
		t.Fatal("/metrics missing the rebalance throttle series")
	}

	// The joiner's census reflects the settled cluster.
	_, _, body = httpGet(t, d.url+"/healthz")
	var hz struct {
		Cluster clusterHealthJSON `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if hz.Cluster.SelfState != StateAlive || hz.Cluster.RingEpoch == 0 || hz.Cluster.OwnedKeys["D"] == 0 {
		t.Fatalf("joiner census after the drill = %+v", hz.Cluster)
	}
	t.Logf("census: joiner owns %d keys of %v across %d members",
		hz.Cluster.OwnedKeys["D"], hz.Cluster.OwnedKeys, len(hz.Cluster.Members))
}
