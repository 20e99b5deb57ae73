package cluster

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/server"
	"taxilight/internal/store"
)

// testNode is one in-process cluster member with a real listener.
type testNode struct {
	id   string
	url  string
	srv  *server.Server
	st   *store.Store
	node *Node
	hs   *http.Server
	ln   net.Listener
}

// kill drops the node off the network without any graceful handoff:
// listener closed, loops stopped, no leave gossip.
func (tn *testNode) kill() {
	tn.hs.Close()
	tn.node.Stop()
}

// startTestCluster boots len(ids) nodes on loopback listeners with fast
// gossip/pull cadences, R=2 replication, and a store per node.
func startTestCluster(t *testing.T, ids []string) map[string]*testNode {
	t.Helper()
	peers := make(map[string]string, len(ids))
	lns := make(map[string]net.Listener, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[id] = ln
		peers[id] = "http://" + ln.Addr().String()
	}
	nodes := make(map[string]*testNode, len(ids))
	for _, id := range ids {
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
			Logf:              t.Logf,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		srv.Start()
		hs := &http.Server{Handler: node.Handler()}
		node.Start()
		go hs.Serve(lns[id])
		tn := &testNode{id: id, url: peers[id], srv: srv, st: st, node: node, hs: hs, ln: lns[id]}
		nodes[id] = tn
		t.Cleanup(func() {
			tn.hs.Close()
			tn.node.Stop()
			tn.srv.StopIngest()
			tn.st.Close()
		})
	}
	return nodes
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// keyOwnedBy finds a key whose static primary is the given node.
func keyOwnedBy(t *testing.T, r *Ring, id string) mapmatch.Key {
	t.Helper()
	for i := 1; i < 200; i++ {
		for _, app := range []lights.Approach{lights.NorthSouth, lights.EastWest} {
			k := mapmatch.Key{Light: roadnet.NodeID(i), Approach: app}
			if r.Primary(k, nil) == id {
				return k
			}
		}
	}
	t.Fatalf("no key with primary %q in 200 lights", id)
	return mapmatch.Key{}
}

func testResult(k mapmatch.Key) core.Result {
	return core.Result{
		Key: k, Cycle: 100, Red: 40, Green: 60,
		GreenToRedPhase: 0, RedToGreenPhase: 40,
		WindowStart: 0, WindowEnd: 1800,
		Records: 50, Stops: 20, Quality: 0.5,
	}
}

// pathFor renders the /v1/state path of a key.
func pathFor(k mapmatch.Key) string {
	app := "NS"
	if k.Approach == lights.EastWest {
		app = "EW"
	}
	return "/v1/state/" + itoa(int64(k.Light)) + "/" + app
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestTwoNodeReplicationAndFailover is the cluster story in miniature:
// an estimate published on A replicates to B by WAL shipping; queries
// against B forward to A while A lives; when A is killed without
// ceremony, B detects the death, promotes the replicated estimate, and
// keeps answering the key — immediately, and never better than "stale".
func TestTwoNodeReplicationAndFailover(t *testing.T) {
	nodes := startTestCluster(t, []string{"A", "B"})
	a, b := nodes["A"], nodes["B"]
	k := keyOwnedBy(t, a.node.ringNow(), "A")
	if got := b.node.client.Timeout; got != 2*time.Second {
		t.Fatalf("intra-cluster requests time out after %v, want 2s", got)
	}

	if n := a.srv.PrimeResults([]core.Result{testResult(k)}); n != 1 {
		t.Fatalf("PrimeResults accepted %d, want 1", n)
	}
	// The publish reaches A's WAL and ships to B's replica.
	waitFor(t, "replication to B", func() bool {
		if b.node.replicaSeq("A") < 1 {
			return false
		}
		_, ok := b.node.replicaRecord(k)
		return ok
	})

	// While A lives, B forwards the key to A.
	code, hdr, body := httpGet(t, b.url+pathFor(k)+"?t=10")
	if code != http.StatusOK || !strings.Contains(body, `"cycle_s":100`) {
		t.Fatalf("forwarded state = %d %s", code, body)
	}
	if h := hdr.Get(server.HealthHeader); h != "" {
		t.Fatalf("forwarded fresh answer carried health %q", h)
	}
	if b.node.met.forwards.Load() == 0 {
		t.Fatal("no forward recorded for a peer-owned key")
	}

	// Kill A mid-flight: no leave, no handoff.
	a.kill()
	waitFor(t, "B to declare A dead", func() bool { return !b.node.mem.Alive("A") })
	waitFor(t, "promotion on B", func() bool { return b.node.met.promotions.Load() >= 1 })

	// B now owns the key and answers from promoted state, capped stale.
	code, hdr, body = httpGet(t, b.url+pathFor(k)+"?t=10")
	if code != http.StatusOK || !strings.Contains(body, `"cycle_s":100`) {
		t.Fatalf("failover state = %d %s", code, body)
	}
	if h := hdr.Get(server.HealthHeader); h != "stale" {
		t.Fatalf("failover health = %q, want stale", h)
	}
	if !strings.Contains(body, `"state":"red"`) || !strings.Contains(body, `"countdown_s":30`) {
		t.Fatalf("failover body lost the countdown: %s", body)
	}

	// The promoted key appears in B's snapshot, dragging its health down.
	code, hdr, body = httpGet(t, b.url+"/v1/snapshot")
	if code != http.StatusOK || !strings.Contains(body, `"light":`+itoa(int64(k.Light))) {
		t.Fatalf("snapshot after failover = %d %s", code, body)
	}
	if h := hdr.Get(server.HealthHeader); h != "stale" {
		t.Fatalf("snapshot health after failover = %q, want stale", h)
	}

	// Promotion flowed through B's own persist path: the estimate is
	// durable on the new primary.
	waitFor(t, "promoted estimate to reach B's WAL", func() bool { return b.st.LastSeq() >= 1 })

	// /healthz exposes the cluster view with the death on record.
	code, _, body = httpGet(t, b.url+"/healthz")
	var hz struct {
		Cluster clusterHealthJSON `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if hz.Cluster.Self != "B" || hz.Cluster.PromotedKeys == 0 {
		t.Fatalf("healthz cluster section = %+v", hz.Cluster)
	}
	foundDead := false
	for _, mb := range hz.Cluster.Members {
		if mb.ID == "A" && mb.State == StateDead {
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatalf("healthz members missing dead A: %+v", hz.Cluster.Members)
	}

	// The cluster metric series render.
	_, _, body = httpGet(t, b.url+"/metrics")
	for _, want := range []string{
		`lightd_cluster_members{state="dead"} 1`,
		"lightd_cluster_promotions_total 1",
		"lightd_cluster_replica_records",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestGracefulLeavePromotesImmediately checks the leave path: a node
// announcing departure hands its keys off without waiting out the
// failure detector.
func TestGracefulLeavePromotesImmediately(t *testing.T) {
	nodes := startTestCluster(t, []string{"A", "B"})
	a, b := nodes["A"], nodes["B"]
	k := keyOwnedBy(t, a.node.ringNow(), "A")
	a.srv.PrimeResults([]core.Result{testResult(k)})
	waitFor(t, "replication to B", func() bool {
		_, ok := b.node.replicaRecord(k)
		return ok
	})

	a.node.Leave()
	waitFor(t, "B to see A gone", func() bool { return !b.node.mem.Alive("A") })
	waitFor(t, "promotion on B", func() bool { return b.node.met.promotions.Load() >= 1 })
	code, hdr, _ := httpGet(t, b.url+pathFor(k)+"?t=10")
	if code != http.StatusOK || hdr.Get(server.HealthHeader) != "stale" {
		t.Fatalf("post-leave answer = %d health %q, want 200 stale", code, hdr.Get(server.HealthHeader))
	}
}

// replicaSeq returns the replication cursor for one peer, so a test can
// wait for replication to catch up.
func (n *Node) replicaSeq(peerID string) uint64 {
	n.mu.Lock()
	pr := n.replicas[peerID]
	n.mu.Unlock()
	if pr == nil {
		return 0
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.lastSeq
}

// TestNewNodeRejectsNegativeSettings: a negative replication factor,
// heartbeat or rebalance rate is refused instead of silently becoming 2,
// 500 ms or unthrottled; zero still means the default, and the node
// reports the replication factor it runs.
func TestNewNodeRejectsNegativeSettings(t *testing.T) {
	peers := map[string]string{"a": "http://127.0.0.1:1", "b": "http://127.0.0.1:2"}
	for _, c := range []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"defaults", func(*Config) {}, true},
		{"negative replication factor", func(c *Config) { c.ReplicationFactor = -1 }, false},
		{"negative heartbeat", func(c *Config) { c.HeartbeatInterval = -time.Second }, false},
		{"negative rebalance rate", func(c *Config) { c.RebalanceBytesPerSec = -1 }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			scfg := server.DefaultConfig()
			scfg.Store = st
			srv, err := server.New(nil, scfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{NodeID: "a", Peers: peers, Logf: t.Logf}
			c.mut(&cfg)
			n, err := NewNode(srv, st, cfg)
			if (err == nil) != c.ok {
				t.Fatalf("NewNode = %v, want ok=%v", err, c.ok)
			}
			if c.ok && n.ReplicationFactor() != 2 {
				t.Fatalf("replication factor %d, want the default 2", n.ReplicationFactor())
			}
		})
	}
}
