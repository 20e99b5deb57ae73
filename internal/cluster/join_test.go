package cluster

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/mapmatch"
	"taxilight/internal/server"
	"taxilight/internal/store"
)

// TestPullBackoffDelay pins the retry schedule: the base interval while
// healthy, exponential growth with full jitter after failures, and a
// hard cap — a dead peer is probed gently, never hammered and never
// forgotten.
func TestPullBackoffDelay(t *testing.T) {
	n := &Node{cfg: Config{PullInterval: 10 * time.Millisecond}}
	if d := n.pullDelay(0); d != 10*time.Millisecond {
		t.Fatalf("healthy delay = %v, want the pull interval", d)
	}
	const ceiling = 200 * time.Millisecond // pullBackoffIntervals pull intervals
	for fails := 1; fails <= 40; fails++ {
		want := n.cfg.PullInterval << fails
		if fails > 16 || want <= 0 || want > ceiling {
			want = ceiling
		}
		for trial := 0; trial < 20; trial++ {
			d := n.pullDelay(fails)
			if d < want/2 || d > want+want/2 {
				t.Fatalf("fails=%d: delay %v outside [%v, %v]", fails, d, want/2, want+want/2)
			}
		}
	}
}

// startJoiningNode boots one extra member in the joining state against
// an already-running cluster. Its peer set is the target membership:
// the existing nodes plus itself; the incumbents learn about it purely
// through gossip.
func startJoiningNode(t *testing.T, id string, existing map[string]*testNode, barrier <-chan struct{}) *testNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	peers := map[string]string{id: "http://" + ln.Addr().String()}
	for pid, tn := range existing {
		peers[pid] = tn.url
	}
	scfg := store.DefaultConfig()
	scfg.SyncEvery = 1
	st, err := store.Open(t.TempDir(), scfg)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	cfg := server.DefaultConfig()
	cfg.Shards = 2
	cfg.FlushEvery = 5 * time.Millisecond
	cfg.Store = st
	cfg.CheckpointInterval = 0
	cfg.MaxInFlight = 0
	srv, err := server.New(nil, cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	node, err := NewNode(srv, st, Config{
		NodeID:            id,
		Peers:             peers,
		ReplicationFactor: 2,
		HeartbeatInterval: 15 * time.Millisecond,
		FailAfter:         90 * time.Millisecond,
		PullInterval:      15 * time.Millisecond,
		Join:              true,
		JoinBarrier:       barrier,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv.Start()
	hs := &http.Server{Handler: node.Handler()}
	node.Start()
	go hs.Serve(ln)
	tn := &testNode{id: id, url: peers[id], srv: srv, st: st, node: node, hs: hs, ln: ln}
	t.Cleanup(func() {
		tn.hs.Close()
		tn.node.Stop()
		tn.srv.StopIngest()
		tn.st.Close()
	})
	return tn
}

// TestJoinHandoffAndWatchEviction walks the whole join protocol on a
// small cluster: a two-node cluster holds estimates, a third node joins
// through gossip, bulk-pulls its slice, imports its history, and cuts
// over — after which it serves its keys (capped stale until a local
// round), the donors' ownership epochs move, a /v1/watch subscriber
// pinned to a moved key is evicted under reason "moved", and the
// reconnect is redirected to the joiner.
func TestJoinHandoffAndWatchEviction(t *testing.T) {
	nodes := startTestCluster(t, []string{"A", "B"})
	a, b := nodes["A"], nodes["B"]

	// Find a key the joiner will adopt, and prime it on its current
	// owner (plus one key per incumbent that stays put, as ballast).
	ring2 := NewRing([]string{"A", "B", "C"}, 64)
	kC := keyOwnedBy(t, ring2, "C")
	curOwner := nodes[a.node.ringNow().Primary(kC, nil)]
	primed := []mapmatch.Key{kC, keyOwnedBy(t, ring2, "A"), keyOwnedBy(t, ring2, "B")}
	for _, k := range primed {
		owner := nodes[a.node.ringNow().Primary(k, nil)]
		if n := owner.srv.PrimeResults([]core.Result{testResult(k)}); n != 1 {
			t.Fatalf("PrimeResults(%v) accepted %d", k, n)
		}
	}
	waitFor(t, "cross-replication of the primed keys", func() bool {
		for _, k := range primed {
			owner := nodes[a.node.ringNow().Primary(k, nil)]
			other := a
			if owner == a {
				other = b
			}
			if _, ok := other.node.replicaRecord(k); !ok {
				return false
			}
		}
		return true
	})

	// A subscriber watches the soon-to-move key on its current owner.
	watchURL := curOwner.url + "/v1/watch?keys=" + itoa(int64(kC.Light)) + ":NS"
	resp, err := (&http.Client{}).Get(watchURL)
	if err != nil {
		t.Fatalf("watch subscribe: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch subscribe = %d", resp.StatusCode)
	}
	watchClosed := make(chan struct{})
	go func() {
		defer close(watchClosed)
		br := bufio.NewReader(resp.Body)
		for {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
		}
	}()

	// The joiner announces itself and bulk-pulls behind a barrier, so
	// the test can observe the joining state before any cutover.
	barrier := make(chan struct{})
	c := startJoiningNode(t, "C", nodes, barrier)
	waitFor(t, "incumbents to learn of the joiner", func() bool {
		return a.node.mem.InPlacement("C") && b.node.mem.InPlacement("C")
	})
	if a.node.mem.Serving("C") || b.node.mem.Serving("C") {
		t.Fatal("a joining node counted as serving before cutover")
	}
	waitFor(t, "the joiner's bulk pull", func() bool { return c.node.joinReady() })
	if st := c.node.mem.SelfState(); st != StateJoining {
		t.Fatalf("joiner state before barrier = %q, want joining", st)
	}
	if got := c.node.ownsKey(kC); got {
		t.Fatal("joining node claimed ingest ownership before cutover")
	}

	// Cut over and wait for the whole cluster to agree. The cutover adds C
	// to the serving set, so every node's ownership epoch moves past the
	// value it had before. A node merges the new membership before it
	// bumps its epoch, so the epochs are part of the condition waited for.
	epochA, epochB, epochC := a.node.Epoch(), b.node.Epoch(), c.node.Epoch()
	close(barrier)
	waitFor(t, "the join cutover to spread and move every ownership epoch", func() bool {
		return c.node.mem.SelfState() == StateAlive &&
			a.node.mem.Serving("C") && b.node.mem.Serving("C") &&
			a.node.Epoch() > epochA && b.node.Epoch() > epochB && c.node.Epoch() > epochC
	})
	if c.node.met.handoffKeys.Load() == 0 {
		t.Fatal("cutover adopted no keys")
	}

	// The moved watcher is evicted (stream closed, counted under
	// reason "moved") and the reconnect redirects to the joiner.
	select {
	case <-watchClosed:
	case <-time.After(10 * time.Second):
		t.Fatal("watch stream on the moved key never closed after cutover")
	}
	waitFor(t, `the moved eviction metric`, func() bool {
		_, _, body := httpGet(t, curOwner.url+"/metrics")
		return strings.Contains(body, `lightd_watch_evictions_total{reason="moved"} 1`)
	})
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	re, err := noRedirect.Get(watchURL)
	if err != nil {
		t.Fatalf("watch reconnect: %v", err)
	}
	re.Body.Close()
	if re.StatusCode != http.StatusTemporaryRedirect || !strings.HasPrefix(re.Header.Get("Location"), c.url) {
		t.Fatalf("watch reconnect = %d Location %q, want 307 to %s", re.StatusCode, re.Header.Get("Location"), c.url)
	}

	// The joiner serves its adopted key directly, capped stale until a
	// local round refreshes it.
	code, hdr, body := httpGet(t, c.url+pathFor(kC)+"?t=10")
	if code != http.StatusOK || !strings.Contains(body, `"cycle_s":100`) {
		t.Fatalf("adopted key on the joiner = %d %s", code, body)
	}
	if h := hdr.Get(server.HealthHeader); h != "stale" {
		t.Fatalf("adopted key health = %q, want stale", h)
	}

	// History imported during the join answers locally on the joiner.
	code, _, body = httpGet(t, c.url+"/v1/history/"+itoa(int64(kC.Light))+"/NS?from=0&to=4000")
	if code != http.StatusOK || !strings.Contains(body, `"cycle_s":100`) {
		t.Fatalf("imported history on the joiner = %d %s", code, body)
	}

	// The donors forward the moved key to its new owner.
	code, _, body = httpGet(t, curOwner.url+pathFor(kC)+"?t=10")
	if code != http.StatusOK || !strings.Contains(body, `"cycle_s":100`) {
		t.Fatalf("moved key via a donor = %d %s", code, body)
	}

	// The census reflects the new membership: three serving members and
	// a nonzero owned-key count for the joiner.
	_, _, body = httpGet(t, c.url+"/healthz")
	var hz struct {
		Cluster clusterHealthJSON `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if hz.Cluster.SelfState != StateAlive || hz.Cluster.RingEpoch == 0 {
		t.Fatalf("joiner census = %+v", hz.Cluster)
	}
	if hz.Cluster.OwnedKeys["C"] == 0 {
		t.Fatalf("joiner census owns no keys: %+v", hz.Cluster.OwnedKeys)
	}
	_, _, body = httpGet(t, c.url+"/metrics")
	for _, want := range []string{
		`lightd_cluster_members{state="alive"} 3`,
		"lightd_cluster_handoff_keys_total",
		"lightd_cluster_ring_epoch",
		"lightd_cluster_underreplicated_keys",
		"lightd_cluster_pull_errors_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
