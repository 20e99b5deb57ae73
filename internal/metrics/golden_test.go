package metrics_test

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"taxilight/internal/cluster"
	"taxilight/internal/experiments"
	"taxilight/internal/routesvc"
	"taxilight/internal/server"
	"taxilight/internal/store"
)

var update = flag.Bool("update", false, "rewrite the file the test compares against (a golden, or README.md's table)")

// wiring selects what boot adds to a bare server; each part brings its
// own families to /metrics.
type wiring struct {
	store     bool // a durable store
	route     bool // a routing service
	sources   bool // two drained file sources: "a" (40 records and a malformed line), "b" (25 records)
	node      bool // a cluster node around the server (needs store)
	rebalance bool // ... with a rebalance throttle
}

// boot builds a server through the public API only — the wiring cmd/lightd
// does — and returns it with the handler that serves it.
func boot(t *testing.T, w wiring) (*server.Server, http.Handler) {
	t.Helper()
	wcfg := experiments.DefaultWorldConfig()
	wcfg.Rows, wcfg.Cols, wcfg.Taxis, wcfg.Horizon = 2, 2, 20, 300
	world, err := experiments.BuildWorld(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.DefaultConfig()
	cfg.Shards = 2
	cfg.CheckpointInterval = 0
	var st *store.Store
	if w.store {
		if st, err = store.Open(t.TempDir(), store.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	srv, err := server.New(world.Matcher, cfg)
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	if w.node {
		ncfg := cluster.Config{
			NodeID: "a",
			Peers:  map[string]string{"a": "http://127.0.0.1:1", "b": "http://127.0.0.1:2"},
			Logf:   t.Logf,
		}
		if w.rebalance {
			ncfg.RebalanceBytesPerSec = 1 << 20
		}
		node, err := cluster.NewNode(srv, st, ncfg) // never started: no gossip, no pulls
		if err != nil {
			t.Fatal(err)
		}
		handler = node.Handler()
	}
	if w.route {
		rs, err := routesvc.New(world.Net, srv.RoutePredictions())
		if err != nil {
			t.Fatal(err)
		}
		srv.SetRouteService(rs)
	}
	srv.Start()
	t.Cleanup(srv.StopIngest)
	if w.sources {
		dir := t.TempDir()
		var a, b strings.Builder
		for i, r := range world.Records[:65] {
			if i < 40 {
				a.WriteString(r.MarshalCSV() + "\n")
			} else {
				b.WriteString(r.MarshalCSV() + "\n")
			}
		}
		a.WriteString("definitely,not,a,record\n")
		for name, body := range map[string]string{"a.csv": a.String(), "b.csv": b.String()} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- srv.RunSources(ctx, "a="+filepath.Join(dir, "a.csv")+",b="+filepath.Join(dir, "b.csv"))
		}()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			sts := srv.SourceStatuses()
			if len(sts) == 2 && sts[0].State == "done" && sts[1].State == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("sources did not drain: %+v", sts)
			}
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	return srv, handler
}

func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// masked reduces a /metrics body to what a dashboard depends on: every
// line but the HELP comments, sample values masked, sorted.
func masked(page string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "#"):
			out = append(out, line)
		default:
			out = append(out, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	sort.Strings(out)
	return out
}

// sameLines reports every line only one side has.
func sameLines(t *testing.T, what string, have, want []string) {
	t.Helper()
	extra := make(map[string]int, len(have))
	for _, l := range have {
		extra[l]++
	}
	for _, l := range want {
		if extra[l] == 0 {
			t.Errorf("%s: missing %q", what, l)
			continue
		}
		extra[l]--
	}
	for l, n := range extra {
		if n > 0 {
			t.Errorf("%s: unexpected %q", what, l)
		}
	}
}

// checkGolden compares lines with the golden at path (rewriting it under
// -update).
func checkGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameLines(t, path, lines, strings.Split(strings.TrimSpace(string(raw)), "\n"))
}

// TestMetricsKeysGolden pins the /metrics surface to goldens captured from
// the commit before the registry existed: the TYPE lines and sample keys of
// a bare server, of a server with store, route service and sources, and of
// a cluster node; and, for the hand-fed wired scenario, sixteen values.
func TestMetricsKeysGolden(t *testing.T) {
	_, bare := boot(t, wiring{})
	checkGolden(t, "../server/testdata/metrics_bare.golden", masked(get(t, bare, "/metrics")))

	_, node := boot(t, wiring{store: true, node: true})
	checkGolden(t, "../cluster/testdata/metrics_node.golden", masked(get(t, node, "/metrics")))

	_, wired := boot(t, wiring{store: true, route: true, sources: true})
	get(t, wired, "/v1/route?src=0&dst=3&depart=100")
	get(t, wired, "/v1/route?src=0&dst=3&depart=100")
	get(t, wired, "/v1/snapshot")
	page := get(t, wired, "/metrics")
	checkGolden(t, "../server/testdata/metrics_wired.golden", masked(page))

	values := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if i := strings.LastIndexByte(line, ' '); !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			values[line[:i]] = v
		}
	}
	var pinned []string
	for _, k := range []string{
		"lightd_ingest_records_total",
		"lightd_ingest_matched_total",
		"lightd_ingest_unmatched_total",
		"lightd_scanner_lines_total",
		`lightd_scanner_skipped_total{class="fields"}`,
		`lightd_source_records_total{source="a"}`,
		`lightd_source_records_total{source="b"}`,
		`lightd_source_connects_total{source="a"}`,
		`lightd_source_state{source="b",state="done"}`,
		`lightd_ingest_connections_total{source="b"}`,
		"lightd_route_plans_total",
		"lightd_route_expanded_nodes_count",
		`lightd_http_request_duration_seconds_count{path="/v1/route"}`,
		`lightd_http_request_duration_seconds_count{path="/v1/snapshot"}`,
		"lightd_store_degraded",
		"lightd_http_inflight",
	} {
		v, ok := values[k]
		if !ok {
			t.Errorf("no sample %s", k)
		}
		pinned = append(pinned, k+" "+strconv.FormatFloat(v, 'g', -1, 64))
	}
	checkGolden(t, "../server/testdata/metrics_values.golden", pinned)
}
