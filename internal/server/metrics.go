package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"taxilight/internal/trace"
)

// The serving daemon exposes Prometheus text-format metrics without any
// client library (the repo is stdlib-only): counters and gauges are
// atomics, histograms are fixed-bucket atomics, and the /metrics handler
// renders the exposition format directly.

// counter is a monotonically increasing int64 metric.
type counter struct{ v atomic.Int64 }

func (c *counter) Add(n int64) { c.v.Add(n) }
func (c *counter) Load() int64 { return c.v.Load() }
func (c *counter) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, float64(c.v.Load()))
}

// gauge is a settable float64 metric (stored as IEEE-754 bits).
type gauge struct{ bits atomic.Uint64 }

func (g *gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }
func (g *gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }
func (g *gauge) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, g.Load())
}

// histogram is a fixed-bucket Prometheus histogram. Observations go to
// the first bucket whose upper bound is >= v; render emits cumulative
// counts plus the implicit +Inf bucket, _sum and _count.
type histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // one per bound, non-cumulative
	inf     atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds))}
}

func (h *histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	if idx < len(h.bounds) {
		h.buckets[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (h *histogram) write(w io.Writer, name, labels string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		writeSample(w, name+"_bucket", joinLabels(labels, fmt.Sprintf(`le="%g"`, b)), float64(cum))
	}
	cum += h.inf.Load()
	writeSample(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum))
	writeSample(w, name+"_sum", labels, math.Float64frombits(h.sumBits.Load()))
	writeSample(w, name+"_count", labels, float64(h.count.Load()))
}

func writeSample(w io.Writer, name, labels string, v float64) {
	if labels != "" {
		fmt.Fprintf(w, "%s{%s} %g\n", name, labels, v)
	} else {
		fmt.Fprintf(w, "%s %g\n", name, v)
	}
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

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

// metrics is the daemon-wide metric set. Per-endpoint and per-class
// series are pre-registered so every scrape shows the full matrix from
// the first request on.
type metrics struct {
	ingestRecords   counter // lines delivered by the scanners
	ingestMatched   counter // records snapped to a signal approach
	ingestUnmatched counter // records no approach could be attributed to
	ingestDropped   counter // matched records dropped at dispatch (shutdown)
	ingestFiltered  counter // matched records for keys this node does not own
	schedChanges    counter // confirmed scheduling changes across shards
	advanceErrors   counter // failed Advance calls

	skipMu      sync.Mutex
	skipByClass map[string]int64 // lenient-scanner skips, per error class
	scanLines   counter

	estimateAge *histogram // observed at every snapshot rebuild

	// Incremental-estimation series, fed by the engines' round observer:
	// wall time per round and per stage, engine-lock hold per round, how many
	// approaches each round recomputed vs carried forward unchanged,
	// round count, and the effective identification parallelism of the
	// most recent round (the resolved -round-workers value after
	// clamping to the round's dirty-key count).
	estimateRound    *histogram
	estimateLockHold *histogram
	estimateStage    [len(roundStages)]*histogram
	keysRecomputed   counter
	keysCarried      counter
	estimateRounds   counter
	estimateWorkers  gauge

	// Durable-store series: queue accounting (appended vs dropped at
	// the bounded persistence queue), failures, and WAL latency split
	// into the cheap framed append and the expensive batched fsync.
	walAppended      counter // records handed to the store
	walDropped       counter // records dropped because the queue was full
	walErrors        counter // failed store appends (records)
	storeWriteErrors counter // failed store appends (batches) — degraded-mode budget
	ckptErrors       counter // failed checkpoint writes
	walAppendLat     *histogram
	walFsyncLat      *histogram
	restoredCount    counter // approaches warm-started from the store

	// Overload-hardening series: requests shed by the in-flight limiter
	// and handler panics swallowed by the recovery middleware.
	httpShed   counter
	httpPanics counter

	// Watch (push read path) series: subscriptions shed at the hub cap,
	// events actually written to client sockets, and the latency from a
	// round's publish to the event landing on the socket. Subscriber
	// gauge and eviction counters live on the hub itself.
	watchShed           counter
	watchEventsWritten  counter
	watchPublishToWrite *histogram

	latMu     sync.Mutex
	latencies map[string]*histogram // per-endpoint request duration

	// rate state for the ingest records/sec gauge: average since the
	// previous scrape.
	rateMu       sync.Mutex
	lastRateAt   int64 // unix nanos of the previous scrape, 0 before the first
	lastRateSeen int64 // ingestRecords at the previous scrape
}

func newMetrics(endpoints []string) *metrics {
	m := &metrics{
		skipByClass:         make(map[string]int64),
		estimateAge:         newHistogram(ageBuckets...),
		estimateRound:       newHistogram(roundBuckets...),
		estimateLockHold:    newHistogram(lockHoldBuckets...),
		walAppendLat:        newHistogram(walBuckets...),
		walFsyncLat:         newHistogram(walBuckets...),
		watchPublishToWrite: newHistogram(latencyBuckets...),
		latencies:           make(map[string]*histogram, len(endpoints)),
	}
	for i := range m.estimateStage {
		m.estimateStage[i] = newHistogram(stageBuckets...)
	}
	for _, c := range trace.Classes() {
		m.skipByClass[c] = 0
	}
	for _, ep := range endpoints {
		m.latencies[ep] = newHistogram(latencyBuckets...)
	}
	return m
}

// addSkips merges a per-class delta from one scanner into the daemon
// totals.
func (m *metrics) addSkips(byClass map[string]int64) {
	m.skipMu.Lock()
	defer m.skipMu.Unlock()
	for c, n := range byClass {
		m.skipByClass[c] += n
	}
}

// observeLatency records one request's duration for its endpoint.
func (m *metrics) observeLatency(endpoint string, seconds float64) {
	m.latMu.Lock()
	h := m.latencies[endpoint]
	m.latMu.Unlock()
	if h != nil {
		h.Observe(seconds)
	}
}

// ingestRate returns the mean ingest rate (records/sec) since the last
// call, given the current wall clock in unix nanos. The first call (and
// any zero-elapsed call) returns 0.
func (m *metrics) ingestRate(nowNanos int64) float64 {
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
