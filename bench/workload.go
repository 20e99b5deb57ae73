package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/dsp"
	"taxilight/internal/ingest"
	"taxilight/internal/mapmatch"
	"taxilight/internal/server"
	"taxilight/internal/store"
)

// workload is one traffic mix. All four drive the same server through
// the same surfaces with one feed writer, one /v1/watch subscriber on
// every approach and one reader; they differ in which tape is fed, whether
// the feed is closed (replay: as fast as TCP and the shard queues accept)
// or open (paced: every line on its schedule), whether a store is
// configured, and whether the reader works beside the feed or after it.
type workload struct {
	Name  string
	Why   string
	Tape  *tapeSpec
	Paced bool
	Store bool
	// ReadsBeside runs the reader while the feed is being ingested;
	// otherwise it runs once ingest has stopped, against a server at rest.
	ReadsBeside bool
}

var workloads = []workload{
	{Name: "replay_city", Tape: &cityTape,
		Why: "dense downtown tape at full speed: estimation rounds are most of the CPU, so core and dsp work shows here"},
	{Name: "replay_arterial", Tape: &arterialTape,
		Why: "sparse arterial tape at full speed: most reports match no light, so scanner and map-matcher work shows here"},
	{Name: "paced_watch", Tape: &cityTape, Paced: true, Store: true,
		Why: "city tape open-loop at 600x with a durable store: the only place wall-clock cadences sit on the path to a watcher"},
	{Name: "paced_read", Tape: &cityTape, Paced: true, ReadsBeside: true,
		Why: "the same paced feed with state and route reads beside it: engine lock hold and the read path show here"},
}

const (
	// compress is how many stream seconds a paced feed sends per wall
	// second: about a fifth of what a replay sustains on two cores, and a
	// round-wave every half second.
	compress = 600.0
	// warmupShare of a paced feed passes before the beside-reader starts,
	// so that it asks about approaches that already have an estimate.
	warmupShare = 0.2
	// A paced run is void when half its lines left over maxLagP50Ms late
	// (a generator that cannot keep its schedule), or admission trailed the
	// writer by more than maxAdmitLag when the feed ended (a backlog that
	// grew). The tail of the lag is reported, not judged: this class of host
	// loses 1 to 5 % of wall time to stalls of 30 to 50 ms that stop
	// generator and program alike, which put lag p99 over 25 ms in a third
	// of the runs of a generator whose median lag is 0.6 ms.
	maxLagP50Ms = 25.0
	maxAdmitLag = time.Second
)

// The reader's two shapes: spread over the feed, or a short probe of the
// server at rest.
var (
	besideReads = readPlan{PerBurst: 20, Every: 10 * time.Millisecond}
	restReads   = readPlan{Bursts: 150, PerBurst: 20, Every: 2 * time.Millisecond}
)

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// check is one correctness assertion of the gate.
type check struct {
	Name   string
	OK     bool
	Detail string
}

type checks []check

func (cs *checks) add(name string, ok bool, format string, args ...any) {
	*cs = append(*cs, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (cs checks) failed() []check {
	var out []check
	for _, c := range cs {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// errInvalidRun marks a run whose numbers must not be reported because
// the generator, not the program, was the slow part.
type errInvalidRun struct{ reason string }

func (e errInvalidRun) Error() string { return "invalid run: " + e.reason }

// roundObs is one estimation round as Config.OnRound reported it.
type roundObs struct {
	shard                                   int
	at                                      float64
	endNs                                   int64
	dur, lock                               time.Duration
	recomputed, carried, workers, published int
}

// roundProbe collects rounds in a traced lap.
type roundProbe struct {
	mu     sync.Mutex
	rounds []roundObs
}

func (p *roundProbe) onRound(shard int, st core.RoundStats) {
	end := nowNs()
	p.mu.Lock()
	p.rounds = append(p.rounds, roundObs{
		shard: shard, at: st.At, endNs: end, dur: st.Duration, lock: st.LockHold,
		recomputed: st.Recomputed, carried: st.Carried, workers: st.Workers, published: len(st.Published),
	})
	p.mu.Unlock()
}

// lapOpts is what one lap is asked to do.
type lapOpts struct {
	limit  int    // lines of the tape to feed
	dir    string // scratch directory of this lap
	seed   int64
	traced bool
	rec    *recorder // where a traced lap puts its spans
	lap    int
}

// lap is everything one fresh server, fed once, left behind.
type lap struct {
	records int
	wall    time.Duration
	use     usage // spent from before the generator started to StopIngest returning
	heapMB  float64
	feed    feedStats
	drain   time.Duration
	admit   time.Duration

	freshMs []float64
	events  int64
	reads   readStats
	acc     accuracy

	attempted, failed int64
	evicted           int64 // records the engines evicted over MaxBufferPerKey
	checks            checks

	// Read once ingest stopped, for the per-layer table.
	src     ingest.SourceStatus
	page    counters
	health  healthz
	stStats *store.Stats
	rounds  []roundObs
	// Traced laps: per-round and per-event latencies.
	arrivalToRoundEndMs []float64
	roundEndToClientMs  []float64
}

func usageDelta(a, b usage) usage {
	return usage{cpu: b.cpu - a.cpu, gc: b.gc - a.gc, mallocs: b.mallocs - a.mallocs, bytes: b.bytes - a.bytes}
}

func servedKeys(doc server.SnapshotDoc) []mapmatch.Key {
	keys := make([]mapmatch.Key, 0, len(doc.Approaches))
	for _, a := range doc.Approaches {
		keys = append(keys, approachKey(a))
	}
	return keys
}

// genSpecFor is the generator's side of one lap.
func genSpecFor(wl workload, tp *tape, in *instance, limit int) genSpec {
	spec := genSpec{
		Tape: tp.Path, Index: tp.Path + ".idx",
		FeedAddr: in.feedAddr, HTTPAddr: in.httpAddr,
		Limit: limit, Keys: tp.Keys,
	}
	if wl.Paced {
		spec.Compress = compress
	}
	return spec
}

// read runs the reader against in on plan, asking about whatever is
// served when it starts. With wait set it gives a server that serves
// nothing yet until deadline to start serving, and fits its bursts into
// what is left.
func (in *instance) read(tp *tape, plan readPlan, wait bool, deadline time.Time) (readStats, error) {
	for {
		doc, err := in.snapshot()
		if err != nil {
			return readStats{}, err
		}
		if served := servedKeys(doc); len(served) > 0 || !wait {
			return runReader(in.httpAddr, plan, served, tp.Nodes)
		}
		time.Sleep(20 * time.Millisecond)
		if plan.Bursts = int(time.Until(deadline) / plan.Every); plan.Bursts < 1 {
			return readStats{}, fmt.Errorf("reader: no approach was served before the feed ended")
		}
	}
}

// runLap boots a fresh server, has the generator feed it, stops ingest,
// reads the final state and runs the correctness gate.
func runLap(wl workload, tp *tape, o lapOpts) (_ *lap, err error) {
	// Twice: what sync.Pools and finalizers still hold of the previous lap's
	// server only goes in the second cycle.
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	lp := &lap{records: o.limit}
	bo := bootOpts{}
	if wl.Store {
		bo.StoreDir = filepath.Join(o.dir, "store")
	}
	var probe *roundProbe
	if o.traced {
		probe = &roundProbe{}
		bo.OnRound = probe.onRound
	}
	in, err := boot(tp, bo)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := in.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	u0 := readUsage()
	gen, err := startLoadgen(genSpecFor(wl, tp, in, o.limit))
	if err != nil {
		return nil, err
	}
	defer gen.stop()
	if _, err := gen.started(); err != nil {
		return nil, err
	}

	// The beside-reader issues a fixed number of bursts that starts after
	// the warm-up and ends with the feed.
	var rdErr error
	rdDone := make(chan struct{})
	if wl.ReadsBeside {
		feedWall := time.Duration((tp.T[o.limit-1] - tp.T[0]) / compress * float64(time.Second))
		warm := time.Duration(float64(feedWall) * warmupShare)
		plan := besideReads
		plan.Seed = o.seed
		plan.Bursts = int((feedWall - warm) / plan.Every)
		feedEnd := time.Now().Add(feedWall)
		go func() {
			defer close(rdDone)
			time.Sleep(warm)
			lp.reads, rdErr = in.read(tp, plan, true, feedEnd)
		}()
	} else {
		close(rdDone)
	}
	fed, err := gen.fed()
	<-rdDone
	if err != nil {
		return nil, err
	}
	if rdErr != nil {
		return nil, rdErr
	}
	lp.feed = feedStats{
		lastByte: fed.LastByteNs, lagMs: fed.LagMs,
		sched: schedule{tp: tp, start: fed.StartNs, chunkAt: fed.ChunkAt},
	}
	if wl.Paced {
		lp.feed.sched.compress = compress
	}
	if lp.admit, err = in.waitConsumed(30 * time.Second); err != nil {
		return nil, err
	}
	if err := in.stopFeed(); err != nil {
		return nil, err
	}
	u1 := readUsage()
	stopped := nowNs()
	lp.use = usageDelta(u0, u1)
	lp.wall = time.Duration(stopped - fed.StartNs)
	lp.drain = time.Duration(stopped - fed.LastByteNs)
	lp.heapMB = liveHeapMB() - float64(before.HeapAlloc)/(1<<20)

	// Everything published has been enqueued by now; the generator lets the
	// stream drain.
	page, err := in.metrics()
	if err != nil {
		return nil, err
	}
	enqueued := int64(page[`lightd_watch_events_total{outcome="enqueued"}`])
	done, err := gen.drain(enqueued)
	if err != nil {
		return nil, err
	}
	lp.events = int64(len(done.RecvNs))
	if !wl.ReadsBeside {
		plan := restReads
		plan.Seed = o.seed
		if lp.reads, err = in.read(tp, plan, false, time.Time{}); err != nil {
			return nil, err
		}
	}

	doc, err := in.snapshot()
	if err != nil {
		return nil, err
	}
	lp.acc = tp.score(doc)
	if lp.page, err = in.metrics(); err != nil {
		return nil, err
	}
	if lp.health, err = in.healthz(); err != nil {
		return nil, err
	}
	lp.src, _ = in.source()
	if in.st != nil {
		ss := in.st.Stats()
		lp.stStats = &ss
	}
	if probe != nil {
		lp.rounds = probe.rounds
	}
	lp.judge(tp, done, enqueued, o)

	if err := in.close(); err != nil {
		return nil, err
	}
	if wl.Store {
		rep, err := store.Verify(bo.StoreDir)
		switch {
		case err != nil:
			lp.checks.add("store_verifies", false, "%v", err)
		default:
			lp.checks.add("store_verifies", rep.OK(), "%s", strings.Join(rep.Problems, "; "))
		}
		if err := os.RemoveAll(bo.StoreDir); err != nil {
			return nil, err
		}
	}
	return lp, nil
}

// judge turns what the lap observed into freshness samples, the
// attempted/failed count and the correctness gate.
func (lp *lap) judge(tp *tape, done doneReport, enqueued int64, o lapOpts) {
	sent := int64(o.limit)
	page := lp.page
	records := int64(page["lightd_ingest_records_total"])
	lp.checks.add("lines_admitted", lp.src.Records == sent && records == sent,
		"wrote %d lines, source admitted %d, lightd_ingest_records_total %d", sent, lp.src.Records, records)
	dropped := int64(page["lightd_ingest_dropped_total"])
	lp.checks.add("nothing_dropped_at_dispatch", dropped == 0, "lightd_ingest_dropped_total %d", dropped)
	skipped := int64(page.sumPrefix("lightd_scanner_skipped_total"))
	lp.checks.add("nothing_skipped_by_scanner", skipped == 0, "lightd_scanner_skipped_total %d over all classes", skipped)
	// A record an engine refuses as older than its window is lost to a
	// fault; records evicted over MaxBufferPerKey are the engine's memory
	// policy at work on a jammed approach, so they are shown, not failed.
	engineDrops := int64(page[`lightd_engine_dropped_records_total{reason="old"}`])
	lp.checks.add("nothing_too_old_for_engines", engineDrops == 0, `lightd_engine_dropped_records_total{reason="old"} %d`, engineDrops)
	lp.evicted = int64(page[`lightd_engine_dropped_records_total{reason="overflow"}`])
	matched, want := int64(page["lightd_ingest_matched_total"]), int64(tp.MatchedCum[o.limit])
	lp.checks.add("matched_as_harness_matcher", matched == want, "lightd_ingest_matched_total %d, harness matched %d", matched, want)

	// Freshness: client receive time minus the due time of the record
	// that made the event's round due.
	missing := enqueued - lp.events
	if missing < 0 {
		missing = 0
	}
	untriggered := int64(0)
	lp.freshMs = make([]float64, 0, len(done.RecvNs))
	for i, recv := range done.RecvNs {
		idx := tp.trigger(done.RoundT[i])
		if idx >= o.limit {
			untriggered++
			continue
		}
		lp.freshMs = append(lp.freshMs, float64(recv-lp.feed.sched.due(idx))/1e6)
	}
	evicted := int64(page.sumPrefix("lightd_watch_evictions_total"))
	lp.checks.add("every_event_received", missing == 0 && untriggered == 0 && evicted == 0 && lp.events > 0,
		"hub enqueued %d, watcher received %d, %d for a round no sent record makes due, %d evictions",
		enqueued, lp.events, untriggered, evicted)

	storeDropped := int64(0)
	if lp.stStats != nil {
		storeDropped = int64(page[`lightd_wal_records_total{outcome="dropped"}`] + page[`lightd_wal_records_total{outcome="error"}`])
		lp.checks.add("every_event_persisted", lp.stStats.AppendedRecords == lp.events && storeDropped == 0,
			"store appended %d records, watcher received %d events, %d dropped or failed", lp.stStats.AppendedRecords, lp.events, storeDropped)
	}
	lp.checks.add("every_read_ok", lp.reads.Failed == 0 && lp.reads.Attempted > 0,
		"%d reads, %d not a decodable 200 (%s)", lp.reads.Attempted, lp.reads.Failed, lp.reads.FirstFailure)

	if o.traced {
		lp.linkRounds(tp, done, o)
	}

	lp.attempted = sent + int64(lp.reads.Attempted) + enqueued
	notAdmitted := sent - lp.src.Records
	if notAdmitted < 0 {
		notAdmitted = 0
	}
	lp.failed = notAdmitted + dropped + skipped + engineDrops + int64(lp.reads.Failed) + missing + untriggered + storeDropped
}

// linkRounds chains what a traced lap saw of each round: the record that
// made it due, the round itself, and the events it sent to the watcher.
//
//	fresh ⊃ server.arrival_to_round_end ⊃ core.round, then pubsub.round_end_to_client
func (lp *lap) linkRounds(tp *tape, done doneReport, o lapOpts) {
	lastRecv := map[float64]int64{}
	byAt := map[float64]roundObs{}
	for _, r := range lp.rounds {
		byAt[r.at] = r
	}
	for i, recv := range done.RecvNs {
		at := done.RoundT[i]
		if r, ok := byAt[at]; ok {
			lp.roundEndToClientMs = append(lp.roundEndToClientMs, float64(recv-r.endNs)/1e6)
		}
		if recv > lastRecv[at] {
			lastRecv[at] = recv
		}
	}
	for _, r := range lp.rounds {
		trace := fmt.Sprintf("lap%d/shard%d/round@%g", o.lap, r.shard, r.at)
		idx := tp.trigger(r.at)
		if idx >= o.limit {
			o.rec.add(span{Trace: trace, Name: "core.round", Start: r.endNs - int64(r.dur), End: r.endNs})
			continue
		}
		due := lp.feed.sched.due(idx)
		lp.arrivalToRoundEndMs = append(lp.arrivalToRoundEndMs, float64(r.endNs-due)/1e6)
		end := r.endNs
		if lr := lastRecv[r.at]; lr > end {
			end = lr
		}
		root := o.rec.add(span{Trace: trace, Name: "fresh", Start: due, End: end})
		arr := o.rec.add(span{Parent: root, Trace: trace, Name: "server.arrival_to_round_end", Start: due, End: r.endNs})
		o.rec.add(span{Parent: arr, Trace: trace, Name: "core.round", Start: r.endNs - int64(r.dur), End: r.endNs})
		if end > r.endNs {
			o.rec.add(span{Parent: root, Trace: trace, Name: "pubsub.round_end_to_client", Start: r.endNs, End: end})
		}
	}
}

// runOpts is one invocation's settings.
type runOpts struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Setups  int
	WorkDir string
	Spans   string
}

// built is a tape with the set-up time that was paid for it.
type built struct {
	tp     *tape
	setupS float64
	nSetup int
}

// setupRepeats is how often a plain run sets up for the median it reports
// as setup_s.
const setupRepeats = 3

// setUp renders spec's tape and brings a server and its generator to the
// first byte, Setups times, and reports the median: set-up is the tape,
// the truth it is judged by, and a server ready to be fed.
func setUp(spec tapeSpec, o runOpts) (*built, error) {
	// A paced feed must have as many stream seconds to send as asked for.
	spec.Horizon = math.Max(spec.Horizon, math.Ceil(o.Seconds*compress))
	var times []float64
	var tp *tape
	for i := 0; i < o.Setups; i++ {
		tp = nil
		runtime.GC() // the previous copy of the tape is garbage
		start := nowNs()
		var err error
		tp, err = buildTape(spec, o.Seed, filepath.Join(o.WorkDir, spec.Name+".tape"))
		if err != nil {
			return nil, err
		}
		if err := tp.writeIndex(tp.Path + ".idx"); err != nil {
			return nil, err
		}
		ready, err := bootToFirstByte(tp)
		if err != nil {
			return nil, err
		}
		times = append(times, float64(ready-start)/1e9)
	}
	return &built{tp: tp, setupS: median(times), nSetup: len(times)}, nil
}

// bootToFirstByte boots a server and a generator that feeds nothing, and
// returns when the generator was ready to write.
func bootToFirstByte(tp *tape) (readyNs int64, err error) {
	in, err := boot(tp, bootOpts{})
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := in.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	gen, err := startLoadgen(genSpecFor(workload{}, tp, in, 0))
	if err != nil {
		return 0, err
	}
	defer gen.stop()
	ready, err := gen.started()
	if err != nil {
		return 0, err
	}
	if _, err := gen.fed(); err != nil {
		return 0, err
	}
	if _, err := gen.drain(0); err != nil {
		return 0, err
	}
	return ready.ReadyNs, nil
}

// report is one workload's outcome.
type report struct {
	wl     workload
	e2e    *values
	layers *values // traced runs only
	shares []string
	checks checks
	// findings are what the gate cannot hold the program to but a reader
	// should see. Laps of one tape that end with different answers: an
	// estimate depends on where the dispatcher's flush ticker cuts a
	// shard's first batch (README.md, Findings), so a stall of the host at
	// the wrong moment moves an approach across an accuracy threshold. And
	// evictions: on some seeds the simulated traffic jams one approach.
	findings  []string
	attempted int64
	failed    int64
	acc       accuracy
}

func (r *report) correct() bool { return len(r.checks.failed()) == 0 }

// runWorkload measures one workload for about o.Seconds: a replay is
// repeated on fresh servers until that much feeding has been timed (at
// least twice, so that the laps can be compared), a paced feed sends that
// many wall seconds of the tape. A traced run splits the same budget
// between traced and untraced laps, so the difference between them is
// the tracing overhead.
func runWorkload(wl workload, b *built, o runOpts, rec *recorder) (*report, error) {
	tp := b.tp
	rep := &report{wl: wl, e2e: newValues()}
	firstSpan := len(rec.spans)
	planHits0, planMisses0, _ := dsp.PlanCacheStats()
	var laps, tracedLaps []*lap
	limit := tp.records()
	if wl.Paced {
		span := o.Seconds * compress
		if o.Trace {
			span /= 2
		}
		limit = tp.limit(span)
	}
	if limit < 1 {
		return nil, fmt.Errorf("%s: tape has no line within the span to feed", wl.Name)
	}
	fed := time.Duration(0)
	budget := time.Duration(o.Seconds * float64(time.Second))
	minLaps := 2
	if wl.Paced && !o.Trace {
		minLaps = 1
	}
	for n := 0; ; n++ {
		traced := o.Trace && n%2 == 0
		lp, err := runLap(wl, tp, lapOpts{limit: limit, dir: o.WorkDir, seed: o.Seed, traced: traced, rec: rec, lap: n})
		if err != nil {
			return nil, fmt.Errorf("%s lap %d: %w", wl.Name, n, err)
		}
		if traced {
			tracedLaps = append(tracedLaps, lp)
		} else {
			laps = append(laps, lp)
		}
		fed += lp.wall
		if n+1 >= minLaps && (wl.Paced || fed >= budget) {
			break
		}
	}
	all := append(append([]*lap(nil), tracedLaps...), laps...)

	evicted := int64(0)
	for i, lp := range all {
		for _, c := range lp.checks {
			c.Name = fmt.Sprintf("%s[lap %d]", c.Name, i)
			rep.checks = append(rep.checks, c)
		}
		rep.attempted += lp.attempted
		rep.failed += lp.failed
		if lp.acc != all[0].acc {
			rep.findings = append(rep.findings, fmt.Sprintf("accuracy differs between laps: lap 0 %+v, lap %d %+v", all[0].acc, i, lp.acc))
		}
		evicted += lp.evicted
	}
	if evicted > 0 {
		rep.findings = append(rep.findings, fmt.Sprintf("engines evicted %d records over %d laps from approaches buffering more than MaxBufferPerKey", evicted, len(all)))
	}
	rep.acc = all[0].acc

	// A paced run is void if the generator ran late or admission trailed
	// the writer: neither may be reported as a latency of the program.
	lagNote := ""
	if wl.Paced {
		var lag []float64
		for _, lp := range all {
			lag = append(lag, lp.feed.lagMs...)
			if lp.admit > maxAdmitLag {
				return nil, errInvalidRun{fmt.Sprintf("%s: admission trailed the writer by %v at the end of the feed (limit %v)", wl.Name, lp.admit, maxAdmitLag)}
			}
		}
		sort.Float64s(lag)
		p50 := median(lag)
		if p50 > maxLagP50Ms {
			return nil, errInvalidRun{fmt.Sprintf("%s: half the paced lines left over %.0f ms late (lag p50 %.1f ms)", wl.Name, maxLagP50Ms, p50)}
		}
		lagNote = fmt.Sprintf("; generator lag p50 %.2f ms, p99 %.2f ms, max %.1f ms", p50, quantile(lag, 99), lag[len(lag)-1])
	}

	// The ledger's own rows come from the untraced laps only.
	e := rep.e2e
	// Rates are the median lap's: one lap slowed by the host does not move
	// the run. Latencies pool every lap's samples.
	var rps, rpcs, allocs, allocBytes, heaps, fresh, stateUs, routeUs []float64
	records := 0
	for _, lp := range laps {
		n := float64(lp.records)
		records += lp.records
		rps = append(rps, n/lp.wall.Seconds())
		rpcs = append(rpcs, n/lp.use.cpu.Seconds())
		allocs = append(allocs, float64(lp.use.mallocs)/n)
		allocBytes = append(allocBytes, float64(lp.use.bytes)/n)
		heaps = append(heaps, lp.heapMB)
		fresh = append(fresh, lp.freshMs...)
		stateUs = append(stateUs, lp.reads.StateUs...)
		routeUs = append(routeUs, lp.reads.RouteUs...)
	}
	e.setNote("setup_s", b.setupS, "median of %d set-ups", b.nSetup)
	e.setNote("records_per_s", median(rps), "median of %d laps, %d records; %.0fx the paper's 930 records/s feed", len(laps), records, median(rps)/930)
	e.setNote("records_per_cpu_s", median(rpcs), "median of %d laps, process CPU of the server alone", len(laps))
	e.setNote("allocs_per_record", median(allocs), "median of %d laps", len(laps))
	e.setNote("alloc_bytes_per_record", median(allocBytes), "median of %d laps", len(laps))
	e.setNote("live_heap_mb", median(heaps), "median of %d laps", len(heaps))
	nFresh := len(fresh)
	p99, used := tail(fresh, 99)
	e.setNote("fresh_p50_ms", median(fresh), "n=%d events%s", nFresh, lagNote)
	e.setNote("fresh_p99_ms", p99, "n=%d events, p%g", nFresh, used)
	e.setNote("read_p50_us", median(stateUs), "n=%d reads", len(stateUs))
	e.setNote("route_p50_us", median(routeUs), "n=%d routes", len(routeUs))
	served, cyc, red := rep.acc.fracs()
	e.setNote("served_frac", served, "%d of %d approaches", rep.acc.Served, rep.acc.Total)
	e.setNote("cycle_ok_frac", cyc, "|cycle error| <= %g s", cycleTolerance)
	e.setNote("red_ok_frac", red, "|red error| <= %g s", redTolerance)
	e.setNote("ok_ops_frac", 1-float64(rep.failed)/float64(rep.attempted), "%d failed of %d attempted", rep.failed, rep.attempted)

	if o.Trace {
		rep.layers = newValues()
		if err := traceLayers(rep, tp, o, rec, firstSpan, tracedLaps, laps); err != nil {
			return nil, err
		}
		hits, misses, _ := dsp.PlanCacheStats()
		hits, misses = hits-planHits0, misses-planMisses0
		rep.layers.set("dsp.plan_cache_hit_frac", ratio(float64(hits), float64(hits+misses)))
	}
	return rep, nil
}

// sameAccuracy compares the two workloads that feed the same lines of the
// same tape; they should end with the same answers. It reports a finding,
// like laps that differ, and "" when they agree or did not both run.
func sameAccuracy(reps []*report) string {
	var a, b *report
	for _, r := range reps {
		switch r.wl.Name {
		case "paced_watch":
			a = r
		case "paced_read":
			b = r
		}
	}
	if a == nil || b == nil || a.acc == b.acc {
		return ""
	}
	return fmt.Sprintf("accuracy differs between paced_watch %+v and paced_read %+v", a.acc, b.acc)
}
