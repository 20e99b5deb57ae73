package routesvc

import "taxilight/internal/metrics"

// serviceMetrics is the routing subsystem's own instrumentation; the
// server exposes it under the lightd_route_* namespace. The request and
// latency series per endpoint live in the server's instrument middleware.
type serviceMetrics struct {
	plans       metrics.Counter
	degraded    metrics.Counter
	cacheHits   metrics.Counter
	cacheMisses metrics.Counter
	// expandedNodes distributes settled A* nodes per plan — the search
	// effort the heuristic saves.
	expandedNodes *metrics.Histogram
}

// Stats is a point-in-time snapshot of the service counters, for tests
// and the A/B report.
type Stats struct {
	Plans       int64
	Degraded    int64
	CacheHits   int64
	CacheMisses int64
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Plans:       s.met.plans.Load(),
		Degraded:    s.met.degraded.Load(),
		CacheHits:   s.met.cacheHits.Load(),
		CacheMisses: s.met.cacheMisses.Load(),
	}
}

// DeclareMetrics names the lightd_route_* families on reg. It is a
// package function because a server declares them before any Service
// exists (SetRouteService wires one in later); CollectMetrics then emits
// whichever service is installed at scrape time.
func DeclareMetrics(reg *metrics.Registry) {
	reg.Declare(metrics.KindCounter, "lightd_route_plans_total", "Route plans answered.")
	reg.Declare(metrics.KindCounter, "lightd_route_degraded_total", "Plans that fell back to free-flow legs for want of a fresh prediction.")
	reg.Declare(metrics.KindCounter, "lightd_route_cache_total", "Prediction-cache lookups; one miss per approach per estimation round.", metrics.L("outcome", "hit", "miss"))
	reg.Declare(metrics.KindHistogram, "lightd_route_expanded_nodes", "A* nodes settled per plan.")
}

// CollectMetrics emits the service's samples into a scrape.
func (s *Service) CollectMetrics(sc *metrics.Scrape) {
	sc.Value("lightd_route_plans_total", float64(s.met.plans.Load()))
	sc.Value("lightd_route_degraded_total", float64(s.met.degraded.Load()))
	sc.Value("lightd_route_cache_total", float64(s.met.cacheHits.Load()), "outcome", "hit")
	sc.Value("lightd_route_cache_total", float64(s.met.cacheMisses.Load()), "outcome", "miss")
	sc.Histogram("lightd_route_expanded_nodes", s.met.expandedNodes.Snapshot())
}
