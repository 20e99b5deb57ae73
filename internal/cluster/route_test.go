package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/navigation"
	"taxilight/internal/roadnet"
	"taxilight/internal/routesvc"
)

// routeTestNet builds the shared demo grid every cluster node plans
// over — same map on every node, estimates sharded by ring ownership.
func routeTestNet(t *testing.T) *roadnet.Network {
	t.Helper()
	cfg := navigation.DefaultFig15Config()
	cfg.Rows, cfg.Cols = 4, 4
	net, err := navigation.BuildFig15Grid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// primePerOwner primes each approach's ground-truth schedule on its
// ring primary only — the sharded deployment: no node holds the whole
// city locally, so cross-shard routes must resolve peers' estimates.
func primePerOwner(t *testing.T, nodes map[string]*testNode, ring *Ring, net *roadnet.Network) {
	t.Helper()
	byOwner := make(map[string][]core.Result)
	for _, nd := range net.SignalisedNodes() {
		for _, app := range []lights.Approach{lights.NorthSouth, lights.EastWest} {
			k := mapmatch.Key{Light: nd.ID, Approach: app}
			sch := nd.Light.ScheduleFor(app, 0)
			owner := ring.Primary(k, nil)
			byOwner[owner] = append(byOwner[owner], core.Result{
				Key:   k,
				Cycle: sch.Cycle, Red: sch.Red, Green: sch.Cycle - sch.Red,
				GreenToRedPhase: sch.Offset,
				WindowStart:     0, WindowEnd: 0,
				Records: 25, Quality: 1,
			})
		}
	}
	if len(byOwner) < 2 {
		t.Fatalf("ownership not spread: one node owns every key")
	}
	for id, batch := range byOwner {
		if n := nodes[id].srv.PrimeResults(batch); n != len(batch) {
			t.Fatalf("primed %d/%d on %s", n, len(batch), id)
		}
	}
}

func decodeRouteDoc(t *testing.T, body string) (doc struct {
	Duration float64 `json:"duration_s"`
	Degraded bool    `json:"degraded"`
	Mode     string  `json:"mode"`
}) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decode route body: %v\n%s", err, body)
	}
	return doc
}

// TestClusterRouteServesPeerEstimates proves the tentpole's cluster
// boundary: with estimates sharded across three nodes, /v1/route on
// ANY node converges to the exact non-degraded light-aware answer —
// non-owned keys resolve through the bulk peer-snapshot cache, not
// per-edge forwarding — and keeps answering 200 after a node dies.
func TestClusterRouteServesPeerEstimates(t *testing.T) {
	nodes := startTestCluster(t, []string{"a", "b", "c"})
	a, b, c := nodes["a"], nodes["b"], nodes["c"]
	waitFor(t, "members alive", func() bool {
		return a.node.mem.Alive("b") && a.node.mem.Alive("c") &&
			b.node.mem.Alive("a") && b.node.mem.Alive("c") &&
			c.node.mem.Alive("a") && c.node.mem.Alive("b")
	})
	net := routeTestNet(t)
	primePerOwner(t, nodes, a.node.ringNow(), net)
	for _, tn := range nodes {
		rs, err := routesvc.New(net, tn.node.RoutePredictions())
		if err != nil {
			t.Fatal(err)
		}
		tn.srv.SetRouteService(rs)
	}

	// Every node must converge to the offline exact planner's cost with
	// no degraded edges: proof that each resolved every key it does not
	// own from its peers.
	ref, err := (&navigation.BelievedPlanner{Net: net, Source: navigation.TruthSource{Net: net}}).Plan(0, 15, 100)
	if err != nil {
		t.Fatal(err)
	}
	for id, tn := range nodes {
		url := tn.url + "/v1/route?src=0&dst=15&depart=100"
		waitFor(t, "exact non-degraded route on "+id, func() bool {
			code, _, body := httpGet(t, url)
			if code != http.StatusOK {
				return false
			}
			doc := decodeRouteDoc(t, body)
			return doc.Mode == "aware" && !doc.Degraded &&
				math.Abs(doc.Duration-ref.Cost) < 1e-6
		})
	}
	forwards := a.node.met.forwards.Load() + b.node.met.forwards.Load() + c.node.met.forwards.Load()
	if forwards == 0 {
		t.Fatal("no peer snapshot fetches: routes cannot all have been served locally")
	}

	// Kill a node: its keys eventually degrade to free-flow on the
	// survivors, but the endpoint must keep answering 200 throughout —
	// before, during and after the peer cache notices.
	c.kill()
	for i := 0; i < 25; i++ {
		code, _, body := httpGet(t, a.url+"/v1/route?src=0&dst=15&depart=100")
		if code != http.StatusOK {
			t.Fatalf("route answered %d after node death: %s", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterRoutePredictionsFailover exercises the prediction source
// directly: a non-owned key is fresh through the peer cache, the
// epoch advances across refreshes, and an owner's death demotes the
// key below fresh (replica fallback at "stale", or gone) instead of
// serving the dead node's answer forever.
func TestClusterRoutePredictionsFailover(t *testing.T) {
	nodes := startTestCluster(t, []string{"a", "b"})
	a, b := nodes["a"], nodes["b"]
	waitFor(t, "members alive", func() bool {
		return a.node.mem.Alive("b") && b.node.mem.Alive("a")
	})
	k := keyOwnedBy(t, a.node.ringNow(), "b")
	if n := b.srv.PrimeResults([]core.Result{testResult(k)}); n != 1 {
		t.Fatalf("primed %d results on b", n)
	}
	src := a.node.RoutePredictions()
	waitFor(t, "peer estimate fresh on a", func() bool {
		est, health, ok := src.Predict(k)
		return ok && health == "fresh" && est.Cycle == 100
	})
	e0 := src.Epoch()

	b.kill()
	waitFor(t, "peer estimate to fall below fresh", func() bool {
		_, health, ok := src.Predict(k)
		return !ok || health != "fresh"
	})
	if e1 := src.Epoch(); e1 <= e0 {
		t.Fatalf("epoch did not advance across peer refreshes: %d -> %d", e0, e1)
	}
	if _, health, ok := src.Predict(k); ok && health != "stale" && health != "quarantined" {
		t.Fatalf("post-death answer carries health %q", health)
	}
}
