package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/pubsub"
	"taxilight/internal/roadnet"
)

// endpointNames pre-registers the latency series for every endpoint.
var endpointNames = []string{"/v1/state", "/v1/snapshot", "/v1/history", "/v1/route", "/healthz", "/metrics"}

// Handler returns the HTTP API: per-approach state with countdown (live
// or as-of a past stream time), the cached city snapshot, persisted
// estimate history, health and metrics. The handler is independent of
// the ingest loops — it reads the shard engines directly — so it can be
// exercised with httptest against a hand-fed server.
//
// Every endpoint runs behind the overload guard: panics become a 500
// and a counter instead of a dead daemon, and when MaxInFlight is set,
// excess querier load is shed with 429 + Retry-After. /healthz and
// /metrics bypass the limiter (never the panic recovery) — a shedding
// daemon must still be observable.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/state/{light}/{approach}", s.instrument("/v1/state", s.guard(false, s.handleState)))
	mux.HandleFunc("GET /v1/snapshot", s.instrument("/v1/snapshot", s.guard(false, s.handleSnapshot)))
	mux.HandleFunc("GET /v1/history/{light}/{approach}", s.instrument("/v1/history", s.guard(false, s.handleHistory)))
	// /v1/route answers even when no routing service is installed (503
	// with a hint) so the endpoint's behaviour does not depend on wiring
	// order; the service itself is resolved per request.
	mux.HandleFunc("GET /v1/route", s.instrument("/v1/route", s.guard(false, s.handleRoute)))
	// /v1/watch is exempt from the in-flight limiter (streams are
	// long-lived; the hub's subscriber cap is the real guard) and not
	// instrumented (a stream's duration is its lifetime, not a latency).
	mux.HandleFunc("GET /v1/watch", s.guard(true, s.handleWatch))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.guard(true, s.handleHealthz)))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.guard(true, s.handleMetrics)))
	if s.cfg.DebugEndpoints {
		mux.HandleFunc("GET /debug/panic", s.guard(false, func(w http.ResponseWriter, r *http.Request) {
			panic("injected by /debug/panic")
		}))
		mux.HandleFunc("GET /debug/block", s.guard(false, s.handleDebugBlock))
		// Live profiling: the standard pprof handlers, reachable only when
		// debug endpoints are enabled. They bypass the in-flight limiter
		// (a profile of an overloaded daemon is exactly when you want one)
		// but not the panic recovery.
		mux.HandleFunc("GET /debug/pprof/", s.guard(true, pprof.Index))
		mux.HandleFunc("GET /debug/pprof/cmdline", s.guard(true, pprof.Cmdline))
		mux.HandleFunc("GET /debug/pprof/profile", s.guard(true, pprof.Profile))
		mux.HandleFunc("GET /debug/pprof/symbol", s.guard(true, pprof.Symbol))
		mux.HandleFunc("GET /debug/pprof/trace", s.guard(true, pprof.Trace))
	}
	return mux
}

// instrument wraps a handler with its endpoint's latency histogram,
// looked up once, when the handler is wrapped.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.met.latencies[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		lat.Observe(time.Since(start).Seconds())
	}
}

// trackingWriter remembers whether the handler already wrote, so panic
// recovery knows if a clean 500 body is still possible.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush/SetWriteDeadline — without it every /v1/watch stream would die
// on the first per-write deadline call.
func (t *trackingWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

// guard is the overload middleware. Shedding sheds *queriers*: health
// and metrics are exempt so operators and load balancers can see the
// daemon saying "busy" rather than timing out on it. Panic recovery is
// universal — one poisoned request must cost one 500, not the process.
func (s *Server) guard(exempt bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !exempt && s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.met.httpShed.Add(1)
				// Jittered so a shed fleet does not retry in lockstep and
				// re-saturate the limiter on the same tick.
				w.Header().Set("Retry-After", strconv.Itoa(1+rand.Intn(3)))
				writeJSON(w, http.StatusTooManyRequests, errorJSON{Error: "overloaded, retry later"})
				return
			}
		}
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				s.met.httpPanics.Add(1)
				if !tw.wrote {
					writeJSON(tw, http.StatusInternalServerError,
						errorJSON{Error: fmt.Sprintf("handler panic: %v", rec)})
				}
			}
		}()
		h(tw, r)
	}
}

// handleDebugBlock holds the request in-flight for ?ms= milliseconds
// (default 1000, capped at 30 s) — the saturation drill behind the
// overload tests.
func (s *Server) handleDebugBlock(w http.ResponseWriter, r *http.Request) {
	d := time.Second
	if q := r.URL.Query().Get("ms"); q != "" {
		ms, err := strconv.Atoi(q)
		if err != nil || ms < 0 {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("bad ms %q", q)})
			return
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if max := 30 * time.Second; d > max {
		d = max
	}
	time.Sleep(d)
	writeJSON(w, http.StatusOK, map[string]float64{"blocked_s": d.Seconds()})
}

// healthHeader is the degraded-mode response header: clients see
// whether an answer came from a fresh estimate without parsing the
// body.
const healthHeader = "X-Taxilight-Health"

// setHealthHeader marks non-fresh answers ("stale", "quarantined",
// "historical") so a client can distinguish a live countdown from a
// best-effort one.
func setHealthHeader(w http.ResponseWriter, health string) {
	if health != "" && health != "fresh" {
		w.Header().Set(healthHeader, health)
	}
}

// stateJSON is the /v1/state/{light}/{approach} body: the live answer
// ("red, 12.4 s to green") plus the estimate it came from and the health
// state it was served under, so a consumer can weigh the answer.
type stateJSON struct {
	Light    int64   `json:"light"`
	Approach string  `json:"approach"`
	T        float64 `json:"t_s"`
	// State is "red", "green" or "unknown" (health-only answer: the
	// approach is known to the engine but has no usable schedule yet).
	State string `json:"state"`
	// CountdownSeconds is the time to the next state change; present
	// only when State is red or green.
	CountdownSeconds *float64 `json:"countdown_s,omitempty"`
	NextState        string   `json:"next_state,omitempty"`
	Health           string   `json:"health"`
	// Estimate is the schedule behind the answer; absent for
	// health-only answers.
	Estimate *approachJSON `json:"estimate,omitempty"`
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

// jsonContentType is the one Content-Type value of every JSON answer.
// Handlers store the slice itself in the header map — Header.Set would
// allocate a fresh one-element slice per response. Nothing may append to
// it or write through it.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// overrideHealth applies the cluster layer's health-override hook, if
// any — e.g. capping a promoted replica's answer at "stale".
func (s *Server) overrideHealth(k mapmatch.Key, health string) string {
	if fn := s.hooks.HealthOverride; fn != nil {
		return fn(k, health)
	}
	return health
}

// ParseStateKey extracts the partition key from a request path with
// {light} and {approach} values (also used by the cluster router).
func ParseStateKey(r *http.Request) (mapmatch.Key, error) {
	light, err := strconv.ParseInt(r.PathValue("light"), 10, 64)
	if err != nil {
		return mapmatch.Key{}, fmt.Errorf("bad light id %q", r.PathValue("light"))
	}
	app, err := parseApproach(r.PathValue("approach"))
	if err != nil {
		return mapmatch.Key{}, err
	}
	return mapmatch.Key{Light: roadnet.NodeID(light), Approach: app}, nil
}

// handleState answers the paper's headline query for one approach: the
// current light state and the countdown to the next change, computed
// from the published estimate at stream time t (the `t` query parameter,
// defaulting to the owning shard's stream clock). With `asof=T` the
// query time-travels: the answer is computed from the estimate that was
// current at stream time T, read from the durable store's history —
// "what would the service have said at T?".
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	key, err := ParseStateKey(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	// The common request has no query string; one that does is parsed once.
	var asof, at string
	if r.URL.RawQuery != "" {
		q := r.URL.Query()
		asof, at = q.Get("asof"), q.Get("t")
	}
	if asof != "" {
		s.handleStateAsOf(w, key, asof)
		return
	}
	sh := s.shardFor(key)
	t := sh.engine.Now()
	if at != "" {
		t, err = strconv.ParseFloat(at, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("bad t %q", at)})
			return
		}
	}
	est, ok := sh.engine.EstimateFor(key)
	if !ok {
		// No estimate; the approach may still be known to the failure
		// ledger (e.g. quarantined before its first success).
		ah, known := sh.engine.ApproachHealthFor(key)
		if !known {
			writeJSON(w, http.StatusNotFound, errorJSON{Error: fmt.Sprintf("no estimate for light %d approach %s", key.Light, key.Approach)})
			return
		}
		health := s.overrideHealth(key, ah.State.String())
		setHealthHeader(w, health)
		writeJSON(w, http.StatusOK, stateJSON{
			Light:    int64(key.Light),
			Approach: key.Approach.String(),
			T:        t,
			State:    "unknown",
			Health:   health,
		})
		return
	}
	// Hot path: the answer is assembled by the shared zero-alloc encoder
	// (the same one /v1/watch frames use) into a pooled buffer —
	// encoding/json never runs for a served estimate.
	health := s.overrideHealth(key, est.Health.String())
	setHealthHeader(w, health)
	w.Header()["Content-Type"] = jsonContentType
	buf := pubsub.GetBuffer()
	*buf = pubsub.AppendState((*buf)[:0], key, t, est, health, 0, false)
	*buf = append(*buf, '\n')
	w.WriteHeader(http.StatusOK)
	w.Write(*buf)
	pubsub.PutBuffer(buf)
}

// handleStateAsOf answers /v1/state?asof=T from the durable store: the
// newest persisted estimate with WindowEnd <= T is evaluated at T, so
// the response is what the service would have answered then — even for
// estimates long since superseded or for a light whose schedule has
// changed.
func (s *Server) handleStateAsOf(w http.ResponseWriter, key mapmatch.Key, q string) {
	st := s.cfg.Store
	if st == nil {
		writeJSON(w, http.StatusNotImplemented, errorJSON{Error: "as-of queries need a durable store (run with -store-dir)"})
		return
	}
	t, err := strconv.ParseFloat(q, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("bad asof %q", q)})
		return
	}
	rec, ok, err := st.AsOf(key, t)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
		return
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: fmt.Sprintf("no persisted estimate for light %d approach %s at or before t=%g", key.Light, key.Approach, t)})
		return
	}
	est := core.Estimate{Result: rec.Result(), Age: t - rec.WindowEnd}
	aj := approachFromEstimate(key, est)
	aj.Health = "historical"
	setHealthHeader(w, "historical")
	resp := stateJSON{
		Light:    int64(key.Light),
		Approach: key.Approach.String(),
		T:        t,
		State:    "unknown",
		Health:   "historical",
		Estimate: &aj,
	}
	if state, until, ok := est.PhaseAt(t); ok {
		resp.State = strings.ToLower(state.String())
		resp.CountdownSeconds = &until
		next := lights.Red
		if state == lights.Red {
			next = lights.Green
		}
		resp.NextState = strings.ToLower(next.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

// historyJSON is the /v1/history body: the persisted estimate series of
// one approach over [from, to], oldest first.
type historyJSON struct {
	Light     int64          `json:"light"`
	Approach  string         `json:"approach"`
	From      float64        `json:"from_s"`
	To        float64        `json:"to_s"`
	Count     int            `json:"count"`
	Truncated bool           `json:"truncated,omitempty"`
	Estimates []historyEntry `json:"estimates"`
}

// historyEntry is one persisted estimate in the history response.
type historyEntry struct {
	Seq         uint64  `json:"seq"`
	Cycle       float64 `json:"cycle_s"`
	Red         float64 `json:"red_s"`
	Green       float64 `json:"green_s"`
	GreenToRed  float64 `json:"green_to_red_phase_s"`
	WindowStart float64 `json:"window_start_s"`
	WindowEnd   float64 `json:"window_end_s"`
	Quality     float64 `json:"quality"`
	Records     int32   `json:"records"`
	Enhanced    bool    `json:"enhanced,omitempty"`
}

// historyMaxResults bounds one history response; narrower ranges or the
// limit parameter page through longer series.
const historyMaxResults = 10000

// handleHistory serves the persisted estimate history of one approach:
// GET /v1/history/{light}/{approach}?from=&to=&limit=. The series is
// bounded by the store's retention policy — compacted segments are gone.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Store
	if st == nil {
		writeJSON(w, http.StatusNotImplemented, errorJSON{Error: "history needs a durable store (run with -store-dir)"})
		return
	}
	key, err := ParseStateKey(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
		return
	}
	from, to := 0.0, math.MaxFloat64
	limit := historyMaxResults
	q := r.URL.Query()
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseFloat(v, 64); err != nil {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("bad from %q", v)})
			return
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = strconv.ParseFloat(v, 64); err != nil {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("bad to %q", v)})
			return
		}
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("bad limit %q", v)})
			return
		}
		if n < limit {
			limit = n
		}
	}
	if to < from {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("inverted range [%g, %g]", from, to)})
		return
	}
	recs, err := st.History(key, from, to, limit+1)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
		return
	}
	doc := historyJSON{
		Light:     int64(key.Light),
		Approach:  key.Approach.String(),
		From:      from,
		To:        to,
		Estimates: []historyEntry{},
	}
	if len(recs) > limit {
		doc.Truncated = true
		recs = recs[len(recs)-limit:]
	}
	for _, rec := range recs {
		doc.Estimates = append(doc.Estimates, historyEntry{
			Seq:         rec.Seq,
			Cycle:       rec.Cycle,
			Red:         rec.Red,
			Green:       rec.Green,
			GreenToRed:  rec.GreenToRedPhase,
			WindowStart: rec.WindowStart,
			WindowEnd:   rec.WindowEnd,
			Quality:     rec.Quality,
			Records:     rec.Records,
			Enhanced:    rec.Enhanced,
		})
	}
	doc.Count = len(doc.Estimates)
	setHealthHeader(w, "historical")
	writeJSON(w, http.StatusOK, doc)
}

// handleSnapshot serves the cached whole-city snapshot with ETag
// revalidation: a request carrying the current tag costs a version
// compare and a 304. The health header carries the worst health across
// the returned keys, so a fleet-polling client sees degradation without
// parsing every approach.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	etag, body, worst := s.snapshot()
	setHealthHeader(w, worst)
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.Write(body)
}

// etagMatches implements the If-None-Match comparison (weak comparison,
// including the `*` wildcard).
func etagMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		candidate := strings.TrimSpace(part)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag {
			return true
		}
	}
	return false
}

// healthzJSON is the /healthz body: per-shard approach-health counts and
// feed liveness.
type healthzJSON struct {
	Status string `json:"status"`
	// Fresh/Stale/Quarantined count approaches across all shards.
	Fresh       int `json:"fresh"`
	Stale       int `json:"stale"`
	Quarantined int `json:"quarantined"`
	// Buffered / DroppedOld / DroppedOverflow aggregate the engines'
	// bounded-memory accounting.
	Buffered        int   `json:"buffered_records"`
	DroppedOld      int64 `json:"dropped_old_records"`
	DroppedOverflow int64 `json:"dropped_overflow_records"`
	// LastIngestAgeSeconds is wall-clock seconds since any shard last
	// ingested a batch; -1 before the first batch.
	LastIngestAgeSeconds float64 `json:"last_ingest_age_s"`
	Shards               int     `json:"shards"`
	// WarmStartApproaches counts estimates restored from the durable
	// store at startup — non-zero means the daemon answered queries
	// before its first live trace arrived.
	WarmStartApproaches int64 `json:"warm_start_approaches"`
	// Store reports the persistence condition: absent without a store,
	// "ok" normally, "degraded" once the write-failure budget tripped
	// and the daemon dropped to serving-only mode.
	Store string `json:"store,omitempty"`
	// WatchSubscribers is the live /v1/watch subscription census.
	WatchSubscribers int `json:"watch_subscribers"`
	// Cluster carries the cluster membership/ring section when the
	// daemon runs as a cluster node.
	Cluster any `json:"cluster,omitempty"`
	// Sources reports every supervised ingest source's state machine
	// and connection accounting; absent before RunSources.
	Sources []sourceJSON `json:"sources,omitempty"`
}

// sourceJSON is one supervised source in the /healthz body.
type sourceJSON struct {
	Name              string  `json:"name"`
	Kind              string  `json:"kind"`
	State             string  `json:"state"`
	Connects          int64   `json:"connects"`
	Reconnects        int64   `json:"reconnects"`
	Resumes           int64   `json:"resumes"`
	CircuitOpens      int64   `json:"circuit_opens"`
	AcceptRetries     int64   `json:"accept_retries"`
	ConnsActive       int64   `json:"connections_active"`
	ConnsTotal        int64   `json:"connections_total"`
	ConnsFailed       int64   `json:"connections_failed"`
	Records           int64   `json:"records"`
	DedupDropped      int64   `json:"dedup_dropped"`
	WatermarkUnixSecs float64 `json:"watermark_unix_s,omitempty"`
	LastError         string  `json:"last_error,omitempty"`
}

// healthReport aggregates every shard's engine health.
func (s *Server) healthReport() healthzJSON {
	doc := healthzJSON{
		Shards:               len(s.shards),
		LastIngestAgeSeconds: -1,
		WarmStartApproaches:  s.met.restoredCount.Load(),
		WatchSubscribers:     s.hub.Subscribers(),
	}
	var lastIngest int64
	for _, sh := range s.shards {
		rep := sh.engine.Health()
		doc.Buffered += rep.BufferedRecords
		doc.DroppedOld += rep.DroppedOldRecords
		doc.DroppedOverflow += rep.DroppedOverflowRecords
		for _, ah := range rep.Approaches {
			switch ah.State {
			case core.Fresh:
				doc.Fresh++
			case core.Stale:
				doc.Stale++
			case core.Quarantined:
				doc.Quarantined++
			}
		}
		if w := sh.lastIngestWall.Load(); w > lastIngest {
			lastIngest = w
		}
	}
	if lastIngest > 0 {
		doc.LastIngestAgeSeconds = time.Since(time.Unix(0, lastIngest)).Seconds()
	}
	if s.cfg.Store != nil {
		doc.Store = "ok"
		if s.storeDegraded.Load() {
			doc.Store = "degraded"
		}
	}
	if fn := s.hooks.Health; fn != nil {
		doc.Cluster = fn()
	}
	if sup := s.supervisor(); sup != nil {
		for _, st := range sup.Snapshot() {
			sj := sourceJSON{
				Name:          st.Name,
				Kind:          st.Kind,
				State:         st.State,
				Connects:      st.Connects,
				Reconnects:    st.Reconnects,
				Resumes:       st.Resumes,
				CircuitOpens:  st.CircuitOpens,
				AcceptRetries: st.AcceptRetries,
				ConnsActive:   st.ConnsActive,
				ConnsTotal:    st.ConnsTotal,
				ConnsFailed:   st.ConnsFailed,
				Records:       st.Records,
				DedupDropped:  st.DedupDropped,
				LastError:     st.LastError,
			}
			if !st.Watermark.IsZero() {
				sj.WatermarkUnixSecs = float64(st.Watermark.Unix())
			}
			doc.Sources = append(doc.Sources, sj)
		}
	}
	return doc
}

// handleHealthz reports serving condition: 200 while at least one
// approach is Fresh and the feed is alive, 503 when every approach is
// stale or quarantined (or none exists yet) — degraded answers are still
// served on /v1/*, but load balancers should stop preferring this
// instance.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := s.healthReport()
	code := http.StatusOK
	doc.Status = "ok"
	if doc.Fresh == 0 {
		code = http.StatusServiceUnavailable
		doc.Status = "no fresh estimates"
	} else if max := s.cfg.StaleFeedAfter; max > 0 && doc.LastIngestAgeSeconds >= 0 &&
		doc.LastIngestAgeSeconds > max.Seconds() {
		code = http.StatusServiceUnavailable
		doc.Status = "feed silent"
	}
	writeJSON(w, code, doc)
}

// handleMetrics serves the registry's page. The estimate-age histogram
// accumulates at snapshot rebuilds, so the scrape first revalidates the
// snapshot cache.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.Write(w) // a scraper that hung up is its own problem
}
