package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/pubsub"
	"taxilight/internal/roadnet"
	"taxilight/internal/server"
	"taxilight/internal/store"
)

// idleNode builds node "A" of a two-member cluster {A, B} without
// starting any loop: no gossip, no pulls, so its replicas hold exactly
// what a test puts there. B answers at bURL.
func idleNode(t *testing.T, bURL string) *Node {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.DefaultConfig())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	cfg := server.DefaultConfig()
	cfg.Shards = 2
	srv, err := server.New(nil, cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	n, err := NewNode(srv, st, Config{
		NodeID: "A",
		Peers:  map[string]string{"A": "http://127.0.0.1:1", "B": bURL},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	return n
}

// replicate stores res as B's replicated record and returns the record.
func replicate(t *testing.T, n *Node, res core.Result) store.Record {
	t.Helper()
	rec, ok := store.FromResult(res)
	if !ok {
		t.Fatalf("no record for %+v", res)
	}
	pr := n.replicas["B"]
	pr.mu.Lock()
	pr.recs[rec.Key()] = rec
	pr.mu.Unlock()
	return rec
}

func serve(n *Node, path string, forwarded bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	if forwarded {
		req.Header.Set(forwardedHeader, "1")
	}
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	return rec
}

// TestReplicaServedState pins the replica answer of /v1/state: a node
// with a replicated record and no engine estimate answers 200 "stale",
// with the state and countdown of the record's schedule, in exactly the
// server's state body — whether it serves the key as an owner, as the
// hop of a forwarded request, or as the last resort once the key's
// owner is unreachable.
func TestReplicaServedState(t *testing.T) {
	n := idleNode(t, "http://127.0.0.1:1") // B refuses connections
	ring := n.ringNow()
	for _, k := range []mapmatch.Key{keyOwnedBy(t, ring, "A"), keyOwnedBy(t, ring, "B")} {
		rec := replicate(t, n, testResult(k))
		res := rec.Result()
		want := string(pubsub.AppendState(nil, k, 10, core.Estimate{Result: res, Age: 10 - res.WindowEnd, Health: core.Stale}, "stale", 0, false)) + "\n"
		for _, forwarded := range []bool{false, true} {
			got := serve(n, pathFor(k)+"?t=10", forwarded)
			if got.Code != http.StatusOK || got.Header().Get(server.HealthHeader) != "stale" {
				t.Fatalf("%v forwarded=%v: status %d health %q body %s", k, forwarded, got.Code, got.Header().Get(server.HealthHeader), got.Body.String())
			}
			if got.Body.String() != want {
				t.Fatalf("%v forwarded=%v body\n got %s\nwant %s", k, forwarded, got.Body.String(), want)
			}
			// testResult: red [0, 40) of a 100 s cycle anchored at 0.
			if !strings.Contains(want, `"state":"red","countdown_s":30,"next_state":"green"`) {
				t.Fatalf("replica answer lost the countdown: %s", want)
			}
			for _, bad := range []string{"NaN", "Inf", "-Inf"} {
				if got := serve(n, pathFor(k)+"?t="+bad, forwarded); got.Code != http.StatusBadRequest {
					t.Fatalf("%v forwarded=%v t=%s: status %d body %s, want 400", k, forwarded, bad, got.Code, got.Body.String())
				}
			}
		}
	}
}

// TestMergeNewestWindowWins holds the one merge rule across the three
// sources of the city view — the local document, adopted replicas and
// peer documents: per key the newest window wins, the earlier source on
// a tie; only keys this node primaries are adopted from replicas; and
// the output is in (light, approach) order.
func TestMergeNewestWindowWins(t *testing.T) {
	n := idleNode(t, "http://127.0.0.1:1")
	ring := n.ringNow()
	var own, foreign []mapmatch.Key
	for i := 1; len(own) < 3 || len(foreign) < 1; i++ {
		for _, app := range []lights.Approach{lights.NorthSouth, lights.EastWest} {
			k := mapmatch.Key{Light: roadnet.NodeID(i), Approach: app}
			if ring.Primary(k, nil) == "A" {
				own = append(own, k)
			} else {
				foreign = append(foreign, k)
			}
		}
	}
	newerRep, tie, adopted, notAdopted := own[0], own[1], own[2], foreign[0]
	at := func(k mapmatch.Key, end float64) core.Result {
		res := testResult(k)
		res.WindowEnd = end
		return res
	}
	n.srv.PrimeResults([]core.Result{at(newerRep, 1800), at(tie, 1800)})
	replicate(t, n, at(newerRep, 2400))
	replicate(t, n, at(tie, 1800))
	replicate(t, n, at(adopted, 1200))
	replicate(t, n, at(notAdopted, 1200))

	local := n.localSnapDoc()
	byKey := make(map[mapmatch.Key]server.SnapshotApproach)
	for _, aj := range local.Approaches {
		k, err := aj.Key()
		if err != nil {
			t.Fatal(err)
		}
		byKey[k] = aj
	}
	for k, want := range map[mapmatch.Key]struct {
		end    float64
		health string
	}{
		newerRep: {2400, "stale"}, // the replica's window is newer
		tie:      {1800, "fresh"}, // equal windows: the local estimate stays
		adopted:  {1200, "stale"},
	} {
		got, ok := byKey[k]
		if !ok || got.WindowEnd != want.end || got.Health != want.health {
			t.Errorf("%v: got %+v (present %v), want window %v health %s", k, got, ok, want.end, want.health)
		}
	}
	if _, ok := byKey[notAdopted]; ok {
		t.Errorf("%v adopted from a replica though B primaries it", notAdopted)
	}
	if len(byKey) != 3 {
		t.Errorf("local document has %d keys, want 3: %+v", len(byKey), local.Approaches)
	}

	// Peer documents: a newer window replaces, an equal one does not.
	entry := func(k mapmatch.Key, end float64, health string) server.SnapshotApproach {
		aj := server.ApproachFromEstimate(k, core.Estimate{Result: at(k, end)})
		aj.Health = health
		return aj
	}
	peer := server.SnapshotDoc{Now: 5000, Approaches: []server.SnapshotApproach{
		entry(adopted, 3000, "fresh"),
		entry(newerRep, 2400, "fresh"),
		entry(notAdopted, 1200, "quarantined"),
	}}
	merged := mergeSnapshots(local, peer)
	if merged.Now != 5000 {
		t.Errorf("merged now %v, want the newest clock 5000", merged.Now)
	}
	checkSnapshotOrder(t, merged)
	got := make(map[mapmatch.Key]server.SnapshotApproach)
	for _, aj := range merged.Approaches {
		k, _ := aj.Key()
		got[k] = aj
	}
	if aj := got[adopted]; aj.WindowEnd != 3000 || aj.Health != "fresh" {
		t.Errorf("adopted key after merge: %+v, want the peer's newer window", aj)
	}
	if aj := got[newerRep]; aj.Health != "stale" {
		t.Errorf("tied key after merge: %+v, want the earlier document's entry", aj)
	}
	if len(got) != 4 {
		t.Errorf("merged %d keys, want 4", len(got))
	}
}

// checkSnapshotOrder asserts every entry names a key in its canonical
// spelling and the entries strictly ascend by (light, approach): sorted,
// no key twice.
func checkSnapshotOrder(t *testing.T, doc server.SnapshotDoc) {
	t.Helper()
	for i, aj := range doc.Approaches {
		k, err := aj.Key()
		if err != nil || aj.Approach != k.Approach.String() {
			t.Fatalf("entry %d names no canonical key: %+v (%v)", i, aj, err)
		}
		if i == 0 {
			continue
		}
		prev := doc.Approaches[i-1]
		if prev.Light > aj.Light || (prev.Light == aj.Light && prev.Approach >= aj.Approach) {
			t.Fatalf("entries %d and %d out of order or repeated: %+v, %+v", i-1, i, prev, aj)
		}
	}
}

// TestPeerSnapshotUnknownApproachDropped feeds a peer snapshot with an
// entry whose approach is neither NS nor EW and whose window is newer
// than the real NS entry of the same light. It must not stand in for
// NS in route predictions, nor reach the merged city snapshot.
func TestPeerSnapshotUnknownApproachDropped(t *testing.T) {
	k := mapmatch.Key{Light: 5, Approach: lights.NorthSouth}
	body := `{"now_s":2000,"approaches":[
		{"light":5,"approach":"XX","cycle_s":55,"red_s":20,"green_s":35,"window_end_s":9999,"records":9,"health":"fresh"},
		{"light":5,"approach":"NS","cycle_s":100,"red_s":40,"green_s":60,"window_end_s":1800,"records":50,"health":"fresh"}]}`
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/snapshot" || r.Header.Get(forwardedHeader) == "" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(body))
	}))
	defer peer.Close()
	n := idleNode(t, peer.URL)

	est, health, ok := n.RoutePredictions().Predict(k)
	if !ok || est.Cycle != 100 || health != "fresh" {
		t.Fatalf("Predict(%v) = cycle %v health %q ok %v, want the peer's NS estimate (cycle 100, fresh)", k, est.Cycle, health, ok)
	}

	rec := serve(n, "/v1/snapshot", false)
	var doc server.SnapshotDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot body %q: %v", rec.Body.String(), err)
	}
	if len(doc.Approaches) != 1 || doc.Approaches[0].Approach != "NS" || doc.Approaches[0].Cycle != 100 {
		t.Fatalf("merged snapshot = %+v, want only the NS entry", doc.Approaches)
	}
}

// FuzzPeerSnapshot feeds arbitrary bytes as a peer's /v1/snapshot body
// through the cluster's decode and merge: nothing panics, and whatever
// survives is unique, in (light, approach) order, and parses.
func FuzzPeerSnapshot(f *testing.F) {
	for _, seed := range []string{
		`{"now_s":1,"approaches":[{"light":1,"approach":"NS","window_end_s":5}]}`,
		`{"approaches":[{"light":1,"approach":"XX","window_end_s":9},{"light":1,"approach":"ns","window_end_s":7},{"light":-3,"approach":"EW"}]}`,
		`{"approaches":[{"light":2,"approach":"EW","window_end_s":1},{"light":2,"approach":"ew","window_end_s":1}]}`,
		`{"approaches":null}`, `{}`, `[]`, `null`, `{"approaches":[{"approach":7}]}`, ``,
	} {
		f.Add([]byte(seed))
	}
	local := server.SnapshotDoc{Now: 10, Approaches: []server.SnapshotApproach{
		{Light: 1, Approach: "EW", WindowEnd: 5, Health: "fresh"},
		{Light: 1, Approach: "NS", WindowEnd: 5, Health: "fresh"},
	}}
	f.Fuzz(func(t *testing.T, body []byte) {
		doc, err := decodeSnapshot(bytes.NewReader(body))
		if err != nil {
			return
		}
		merged := mergeSnapshots(local, doc)
		checkSnapshotOrder(t, merged)
		server.WriteSnapshot(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/snapshot", nil), merged)
	})
}
