package routeab

import (
	"io"
	"os"
	"testing"

	"taxilight/internal/experiments"
)

// TestRouteABSmoke runs a scaled-down A/B end to end: real ingest, real
// HTTP, concurrent load. It asserts the machinery — every trip driven,
// no serving errors under load, the cache hot — not the savings, which
// a tiny world is too noisy to bound.
func TestRouteABSmoke(t *testing.T) {
	cfg := Config{
		World:       experiments.WorldConfig{Rows: 3, Cols: 3, Taxis: 120, Seed: 3, Horizon: 1200},
		Trips:       6,
		LoadWorkers: 3,
		LoadQueries: 15,
		Seed:        3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trips != cfg.Trips {
		t.Fatalf("drove %d/%d trips", res.Trips, cfg.Trips)
	}
	if res.AwareMean <= 0 || res.BaselineMean <= 0 {
		t.Fatalf("degenerate means: aware %v baseline %v", res.AwareMean, res.BaselineMean)
	}
	if res.LoadErrors != 0 {
		t.Fatalf("%d load errors out of %d queries", res.LoadErrors, res.LoadQueries)
	}
	if res.LoadQueries != cfg.LoadWorkers*cfg.LoadQueries {
		t.Fatalf("accounted %d queries, want %d", res.LoadQueries, cfg.LoadWorkers*cfg.LoadQueries)
	}
	if res.P99Millis <= 0 || res.P50Millis <= 0 {
		t.Fatalf("latency percentiles not measured: p50 %v p99 %v", res.P50Millis, res.P99Millis)
	}
	if res.CacheHits == 0 {
		t.Fatal("prediction cache never hit under replanning load")
	}
	if res.TotalApproaches == 0 {
		t.Fatal("no approaches counted")
	}
}

// TestRouteABFull is the full-size A/B; it
// asserts the headline claim — light-aware routing on live identified
// estimates beats the blind baseline on realised time — and is gated
// behind TAXILIGHT_ROUTE_SOAK=1 because it simulates a full hour of
// traffic.
func TestRouteABFull(t *testing.T) {
	if os.Getenv("TAXILIGHT_ROUTE_SOAK") != "1" {
		t.Skip("set TAXILIGHT_ROUTE_SOAK=1 to run the full route A/B")
	}
	res, err := Run(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadErrors != 0 {
		t.Fatalf("%d load errors", res.LoadErrors)
	}
	if res.FreshApproaches*2 < res.TotalApproaches {
		t.Fatalf("coverage %d/%d below half: estimates never matured", res.FreshApproaches, res.TotalApproaches)
	}
	if res.AwareMean > res.BaselineMean {
		t.Fatalf("light-aware %v s realised worse than baseline %v s", res.AwareMean, res.BaselineMean)
	}
	t.Logf("saving %.1f%% (aware %.1f s vs baseline %.1f s), p99 %.2f ms over %d queries",
		res.SavingsPct, res.AwareMean, res.BaselineMean, res.P99Millis, res.LoadQueries)
}

// BenchmarkRouteAB wraps the printed experiment for the bench smoke.
func BenchmarkRouteAB(b *testing.B) {
	cfg := Config{
		World:       experiments.WorldConfig{Rows: 3, Cols: 3, Taxis: 120, Seed: 3, Horizon: 1200},
		Trips:       4,
		LoadWorkers: 2,
		LoadQueries: 10,
		Seed:        3,
	}
	for i := 0; i < b.N; i++ {
		if err := Report(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
