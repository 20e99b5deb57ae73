package server

import (
	"sync"
	"time"

	"taxilight/internal/dsp"
	"taxilight/internal/ingest"
	"taxilight/internal/metrics"
	"taxilight/internal/routesvc"
	"taxilight/internal/trace"
)

// latencyBuckets covers sub-millisecond cache hits through multi-second
// stalls for the per-endpoint request-duration histograms.
var latencyBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5}

// ageBuckets covers the estimate-age range that matters against the
// default cadence (re-estimate every 300 s, stale after 900 s).
var ageBuckets = []float64{60, 150, 300, 450, 600, 900, 1800, 3600}

// walBuckets covers WAL append (microseconds: in-memory framing) through
// fsync (up to hundreds of milliseconds on contended disks).
var walBuckets = []float64{.00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25}

// roundBuckets covers estimation-round wall time: a near-empty dirty set
// finishes in microseconds, a dense full recompute can take seconds.
var roundBuckets = []float64{.0001, .0005, .001, .005, .01, .05, .1, .25, .5, 1, 2.5, 5, 10}

// lockHoldBuckets covers the engine-lock hold time of a round's snapshot
// and publish sections — the only window during which readers and ingest
// wait. These must stay far below roundBuckets, which is the point of the
// non-blocking design.
var lockHoldBuckets = []float64{.000005, .00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005, .01, .05}

// stageBuckets covers one stage of a round: the snapshot and publish
// sections take microseconds, stop indexing and identification up to
// seconds on a dense shard.
var stageBuckets = []float64{.00001, .00005, .0001, .0005, .001, .005, .01, .05, .1, .5, 1, 5}

// roundStages labels lightd_estimate_stage_seconds, in the order a round
// runs its stages (core.RoundStats: the four sum to the round duration).
var roundStages = [...]string{"snapshot", "stop_index", "identify", "publish"}

// serverMetrics is the daemon's instrument set; newMetrics registers each
// field under the name beside it. Per-endpoint and per-class series are
// pre-registered so every scrape shows the full matrix from the first
// request on, and so the request and ingest paths only ever touch an
// atomic.
type serverMetrics struct {
	ingestRecords   *metrics.Counter
	ingestMatched   *metrics.Counter
	ingestUnmatched *metrics.Counter
	ingestDropped   *metrics.Counter
	ingestFiltered  *metrics.Counter
	schedChanges    *metrics.Counter
	advanceErrors   *metrics.Counter

	scanLines   *metrics.Counter
	skipByClass map[string]*metrics.Counter // by trace parse-error class

	estimateAge *metrics.Histogram // observed at every snapshot rebuild

	// Fed by the engines' round observer.
	estimateRound    *metrics.Histogram
	estimateLockHold *metrics.Histogram
	estimateStage    [len(roundStages)]*metrics.Histogram
	keysRecomputed   *metrics.Counter
	keysCarried      *metrics.Counter
	estimateRounds   *metrics.Counter
	estimateWorkers  *metrics.Gauge

	// Durable-store series, on the page only when a store is configured.
	walAppended      *metrics.Counter
	walDropped       *metrics.Counter
	walErrors        *metrics.Counter
	storeWriteErrors *metrics.Counter
	ckptErrors       *metrics.Counter
	walAppendLat     *metrics.Histogram
	walFsyncLat      *metrics.Histogram
	restoredCount    metrics.Counter // approaches warm-started; also in /healthz

	httpShed   *metrics.Counter
	httpPanics *metrics.Counter
	latencies  map[string]*metrics.Histogram // by endpoint

	watchShed           *metrics.Counter
	watchEventsWritten  *metrics.Counter
	watchPublishToWrite *metrics.Histogram

	// rate state for the ingest records/sec gauge: average since the
	// previous scrape.
	rateMu       sync.Mutex
	lastRateAt   int64 // unix nanos of the previous scrape, 0 before the first
	lastRateSeen int64 // ingestRecords at the previous scrape
}

// newMetrics registers the daemon's instruments on reg. Without a store
// the store instruments still exist — their call sites do not branch —
// but on a registry nobody writes.
func newMetrics(reg *metrics.Registry, endpoints []string, withStore bool) *serverMetrics {
	m := &serverMetrics{
		ingestRecords:   reg.Counter("lightd_ingest_records_total", "Records the scanners delivered to the dispatcher."),
		ingestMatched:   reg.Counter("lightd_ingest_matched_total", "Records map-matched to a signal approach."),
		ingestUnmatched: reg.Counter("lightd_ingest_unmatched_total", "Records no signal approach could be attributed to."),
		ingestDropped:   reg.Counter("lightd_ingest_dropped_total", "Matched records dropped at dispatch because the daemon was shutting down."),
		ingestFiltered:  reg.Counter("lightd_ingest_filtered_total", "Matched records for approaches this cluster node does not own."),
		scanLines:       reg.Counter("lightd_scanner_lines_total", "Non-blank feed lines the lenient scanners read, good and bad."),
		skipByClass:     make(map[string]*metrics.Counter),
		schedChanges:    reg.Counter("lightd_scheduling_changes_total", "Confirmed scheduling changes across all approaches."),
		advanceErrors:   reg.Counter("lightd_advance_errors_total", "Estimation rounds that returned an error."),

		estimateAge:      reg.Histogram("lightd_estimate_age_seconds", "Age of every served estimate, observed at each snapshot rebuild.", ageBuckets),
		estimateRound:    reg.Histogram("lightd_estimate_round_seconds", "Wall time of one estimation round.", roundBuckets),
		estimateLockHold: reg.Histogram("lightd_estimate_lock_hold_seconds", "Engine-lock hold time of one round: the only window readers and ingest wait.", lockHoldBuckets),
		keysRecomputed:   reg.Counter("lightd_estimate_keys_total", "Approaches a round recomputed or carried forward unchanged.", "outcome", "recomputed"),
		keysCarried:      reg.Counter("lightd_estimate_keys_total", "", "outcome", "carried"),
		estimateRounds:   reg.Counter("lightd_estimate_rounds_total", "Estimation rounds run."),
		estimateWorkers:  reg.Gauge("lightd_estimate_workers", "Identification parallelism of the most recent round, after clamping to its dirty keys."),

		httpShed:   reg.Counter("lightd_http_shed_total", "Requests answered 429 by the in-flight limiter."),
		httpPanics: reg.Counter("lightd_http_panics_total", "Handler panics turned into a 500 by the recovery middleware."),
		latencies:  make(map[string]*metrics.Histogram, len(endpoints)),

		watchEventsWritten:  reg.Counter("lightd_watch_events_total", "Watch events enqueued for subscribers, dropped at a full queue, and written to sockets.", "outcome", "written"),
		watchShed:           reg.Counter("lightd_watch_shed_total", "Watch subscriptions refused at the hub's subscriber cap."),
		watchPublishToWrite: reg.Histogram("lightd_watch_publish_to_write_seconds", "Latency from a round's publish to the event landing on a watcher's socket.", latencyBuckets),
	}
	for _, c := range trace.Classes() {
		m.skipByClass[c] = reg.Counter("lightd_scanner_skipped_total", "Malformed lines the lenient scanners skipped, by parse-error class.", "class", c)
	}
	for i, stage := range roundStages {
		m.estimateStage[i] = reg.Histogram("lightd_estimate_stage_seconds", "Wall time of each stage of a round; the four sum to the round.", stageBuckets, "stage", stage)
	}
	for _, ep := range endpoints {
		m.latencies[ep] = reg.Histogram("lightd_http_request_duration_seconds", "Request duration by endpoint.", latencyBuckets, "path", ep)
	}
	if !withStore {
		reg = metrics.NewRegistry()
	}
	m.walAppended = reg.Counter("lightd_wal_records_total", "Estimate records appended to the WAL, dropped at the full persistence queue, or failed.", "outcome", "appended")
	m.walDropped = reg.Counter("lightd_wal_records_total", "", "outcome", "dropped")
	m.walErrors = reg.Counter("lightd_wal_records_total", "", "outcome", "error")
	m.storeWriteErrors = reg.Counter("lightd_store_write_errors_total", "Failed store append batches, counted against the degraded-mode budget.")
	m.ckptErrors = reg.Counter("lightd_checkpoints_total", "Checkpoints written and checkpoint writes that failed.", "outcome", "error")
	m.walAppendLat = reg.Histogram("lightd_wal_append_duration_seconds", "Duration of one framed WAL append.", walBuckets)
	m.walFsyncLat = reg.Histogram("lightd_wal_fsync_duration_seconds", "Duration of one batched WAL fsync.", walBuckets)
	return m
}

// skipped returns the counter for one parse-error class; a class outside
// trace.Classes() counts as "other".
func (m *serverMetrics) skipped(class string) *metrics.Counter {
	if c := m.skipByClass[class]; c != nil {
		return c
	}
	return m.skipByClass[trace.ClassOther]
}

// ingestRate returns the mean ingest rate (records/sec) since the last
// call, given the current wall clock in unix nanos. The first call (and
// any zero-elapsed call) returns 0.
func (m *serverMetrics) ingestRate(nowNanos int64) float64 {
	m.rateMu.Lock()
	defer m.rateMu.Unlock()
	seen := m.ingestRecords.Load()
	defer func() { m.lastRateAt, m.lastRateSeen = nowNanos, seen }()
	if m.lastRateAt == 0 || nowNanos <= m.lastRateAt {
		return 0
	}
	elapsed := float64(nowNanos-m.lastRateAt) / 1e9
	return float64(seen-m.lastRateSeen) / elapsed
}

// sourceCounters are the per-source supervision counters, one family each.
var sourceCounters = []struct {
	name, help string
	get        func(ingest.SourceStatus) int64
}{
	{"lightd_source_connects_total", "Connections a source established.", func(st ingest.SourceStatus) int64 { return st.Connects }},
	{"lightd_source_reconnects_total", "Connections after a source's first.", func(st ingest.SourceStatus) int64 { return st.Reconnects }},
	{"lightd_source_resumes_total", "Reconnects that resumed behind the dedup watermark.", func(st ingest.SourceStatus) int64 { return st.Resumes }},
	{"lightd_source_circuit_opens_total", "Times a source's circuit breaker opened.", func(st ingest.SourceStatus) int64 { return st.CircuitOpens }},
	{"lightd_source_accept_retries_total", "Transient accept errors a listen source retried.", func(st ingest.SourceStatus) int64 { return st.AcceptRetries }},
	{"lightd_source_records_total", "Records a source admitted past its dedup gate.", func(st ingest.SourceStatus) int64 { return st.Records }},
	{"lightd_source_dedup_dropped_total", "Replayed records a source's dedup gate dropped.", func(st ingest.SourceStatus) int64 { return st.DedupDropped }},
	{"lightd_ingest_connections_total", "Feed connections opened, by source.", func(st ingest.SourceStatus) int64 { return st.ConnsTotal }},
	{"lightd_ingest_connections_failed_total", "Feed connections that ended in an error, by source.", func(st ingest.SourceStatus) int64 { return st.ConnsFailed }},
}

// registerCollectors declares every family whose value lives outside the
// registry — engine health, the hub, the FFT plan cache, the store, the
// routing service, the ingest supervisor — and the scrape-time functions
// that read them.
func (s *Server) registerCollectors() {
	const counter, gauge = metrics.KindCounter, metrics.KindGauge
	reg := s.reg
	reg.Declare(gauge, "lightd_ingest_records_per_second", "Mean ingest rate since the previous scrape.")
	reg.Declare(gauge, "lightd_approaches", "Approaches known to the engines, by health.", metrics.L("health", "fresh", "stale", "quarantined"))
	reg.Declare(gauge, "lightd_buffered_records", "Matched records buffered in the engines' windows.")
	reg.Declare(counter, "lightd_engine_dropped_records_total", "Records the engines dropped as older than the window or over the buffer bound.", metrics.L("reason", "old", "overflow"))
	reg.Declare(counter, "lightd_fft_plan_cache_total", "FFT plan cache lookups.", metrics.L("outcome", "hit", "miss"))
	reg.Declare(gauge, "lightd_fft_plan_cache_size", "FFT plans cached.")
	reg.Declare(gauge, "lightd_watch_subscribers", "Live /v1/watch subscriptions.")
	reg.Declare(counter, "lightd_watch_events_total", "", metrics.L("outcome", "enqueued", "dropped"))
	reg.Declare(counter, "lightd_watch_evictions_total", "Watch subscribers evicted for a full queue, a missed write deadline, or a key that moved to another node.", metrics.L("reason", "overflow", "deadline", "moved"))
	reg.Declare(gauge, "lightd_http_inflight", "Requests holding an in-flight limiter slot.")
	reg.Collect(s.collectServer)

	if s.cfg.Store != nil {
		reg.Declare(gauge, "lightd_store_degraded", "1 once the write-failure budget tripped and the daemon stopped persisting.")
		reg.Declare(counter, "lightd_wal_fsyncs_total", "WAL fsyncs.")
		reg.Declare(gauge, "lightd_wal_segments", "WAL segment files on disk.")
		reg.Declare(gauge, "lightd_wal_segment_bytes", "Bytes in WAL segment files on disk.")
		reg.Declare(counter, "lightd_checkpoints_total", "", metrics.L("outcome", "written"))
		reg.Declare(counter, "lightd_compaction_runs_total", "Retention compaction passes.")
		reg.Declare(counter, "lightd_compacted_total", "Files compaction removed.", metrics.L("kind", "segment", "checkpoint"))
		reg.Declare(gauge, "lightd_warm_start_approaches", "Approaches restored from the store at startup.")
		reg.Collect(s.collectStore)
	}

	// The routing service is wired after New (SetRouteService), so its
	// families are declared now and read through s.route at scrape time.
	routesvc.DeclareMetrics(reg)
	reg.Collect(func(sc *metrics.Scrape) {
		if rs := s.route.Load(); rs != nil {
			rs.CollectMetrics(sc)
		}
	})

	reg.Declare(gauge, "lightd_source_state", "1 for the state each supervised source is in, 0 for the others.", metrics.L("source"), metrics.L("state", ingest.StateNames()...))
	for _, c := range sourceCounters {
		reg.Declare(counter, c.name, c.help, metrics.L("source"))
	}
	reg.Declare(gauge, "lightd_ingest_connections_active", "Feed connections open now, by source.", metrics.L("source"))
	reg.Declare(metrics.KindHistogram, "lightd_source_backoff_seconds", "Supervised pauses before a reconnect or accept retry.", metrics.L("source"))
	reg.Collect(s.collectSources)
}

func (s *Server) collectServer(sc *metrics.Scrape) {
	sc.Value("lightd_ingest_records_per_second", s.met.ingestRate(time.Now().UnixNano()))
	doc := s.healthReport()
	sc.Value("lightd_approaches", float64(doc.Fresh), "health", "fresh")
	sc.Value("lightd_approaches", float64(doc.Stale), "health", "stale")
	sc.Value("lightd_approaches", float64(doc.Quarantined), "health", "quarantined")
	sc.Value("lightd_buffered_records", float64(doc.Buffered))
	sc.Value("lightd_engine_dropped_records_total", float64(doc.DroppedOld), "reason", "old")
	sc.Value("lightd_engine_dropped_records_total", float64(doc.DroppedOverflow), "reason", "overflow")
	hits, misses, cached := dsp.PlanCacheStats()
	sc.Value("lightd_fft_plan_cache_total", float64(hits), "outcome", "hit")
	sc.Value("lightd_fft_plan_cache_total", float64(misses), "outcome", "miss")
	sc.Value("lightd_fft_plan_cache_size", float64(cached))
	hs := s.hub.Snapshot()
	sc.Value("lightd_watch_subscribers", float64(hs.Subscribers))
	sc.Value("lightd_watch_events_total", float64(hs.Delivered), "outcome", "enqueued")
	sc.Value("lightd_watch_events_total", float64(hs.Dropped), "outcome", "dropped")
	sc.Value("lightd_watch_evictions_total", float64(hs.EvictedOverflow), "reason", "overflow")
	sc.Value("lightd_watch_evictions_total", float64(hs.EvictedDeadline), "reason", "deadline")
	sc.Value("lightd_watch_evictions_total", float64(hs.EvictedMoved), "reason", "moved")
	sc.Value("lightd_http_inflight", float64(len(s.inflight)))
}

func (s *Server) collectStore(sc *metrics.Scrape) {
	degraded := 0.0
	if s.storeDegraded.Load() {
		degraded = 1
	}
	sc.Value("lightd_store_degraded", degraded)
	ss := s.cfg.Store.Stats()
	sc.Value("lightd_wal_fsyncs_total", float64(ss.Fsyncs))
	sc.Value("lightd_wal_segments", float64(ss.Segments))
	sc.Value("lightd_wal_segment_bytes", float64(ss.SegmentBytes))
	sc.Value("lightd_checkpoints_total", float64(ss.CheckpointsWritten), "outcome", "written")
	sc.Value("lightd_compaction_runs_total", float64(ss.CompactionRuns))
	sc.Value("lightd_compacted_total", float64(ss.SegmentsCompacted), "kind", "segment")
	sc.Value("lightd_compacted_total", float64(ss.CheckpointsCompacted), "kind", "checkpoint")
	sc.Value("lightd_warm_start_approaches", float64(s.met.restoredCount.Load()))
}

func (s *Server) collectSources(sc *metrics.Scrape) {
	sup := s.supervisor()
	if sup == nil {
		return
	}
	for _, st := range sup.Snapshot() {
		for _, name := range ingest.StateNames() {
			v := 0.0
			if st.State == name {
				v = 1
			}
			sc.Value("lightd_source_state", v, "source", st.Name, "state", name)
		}
		for _, c := range sourceCounters {
			sc.Value(c.name, float64(c.get(st)), "source", st.Name)
		}
		sc.Value("lightd_ingest_connections_active", float64(st.ConnsActive), "source", st.Name)
		sc.Histogram("lightd_source_backoff_seconds", st.Backoff, "source", st.Name)
	}
}
