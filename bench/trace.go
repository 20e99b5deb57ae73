package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/dsp"
	"taxilight/internal/mapmatch"
	"taxilight/internal/pubsub"
	"taxilight/internal/server"
	"taxilight/internal/store"
	"taxilight/internal/trace"
)

// The traced run has two halves. The live half is the workload itself
// with Config.OnRound installed, plus the counters the program already
// exports. The staged half takes the same tape through the same public
// functions one stage at a time on one goroutine, so that each stage's
// CPU can be told apart, and then probes the pieces a round and a read
// are made of. Nothing here reaches into the program: every span is
// taken in this package around a public call.

const (
	stagedBlock    = 1024 // records per staged span
	allocSample    = 32768
	interiorEvery  = 6 // every sixth round boundary is taken apart
	ingestBatch    = 256
	readProbeOps   = 2000
	slowProbeOps   = 200
	rebuildOps     = 20
	planProbeOps   = 1000
	publishRounds  = 200
	appendRounds   = 50
	checkpointReps = 3
)

// traceLayers fills rep.layers.
func traceLayers(rep *report, tp *tape, o runOpts, rec *recorder, firstSpan int, traced, plain []*lap) error {
	L := rep.layers
	// The whole daemon first: the timings of this run's untraced laps.
	for _, d := range reportedOnly {
		if d.Name != "red_ok_frac" {
			L.setNote("lightd."+d.Name, rep.e2e.v[d.Name], "%s", rep.e2e.notes[d.Name])
		}
	}
	liveLayers(L, rep.wl, traced, plain)
	_, _, red := rep.acc.fracs()
	L.setNote("core.red_ok_frac", red, "|red error| <= %g s on the final snapshot", redTolerance)

	scanAllocs, matchAllocs, err := sampleAllocs(tp)
	if err != nil {
		return err
	}
	L.set("trace.scan_allocs_per_record", scanAllocs)
	L.set("mapmatch.match_allocs_per_record", matchAllocs)

	sp, err := stagedPass(tp, rec, true)
	if err != nil {
		return err
	}
	n, m := float64(sp.records), float64(sp.matched)
	L.set("trace.scan_ns_per_record", float64(sp.scanCPU)/n)
	L.set("trace.scan_mb_per_s", float64(tp.Off[sp.records])/1e6/sp.scanCPU.Seconds())
	L.set("trace.skipped_lines", float64(sp.skipped))
	L.set("mapmatch.match_ns_per_record", float64(sp.matchCPU)/n)
	L.set("mapmatch.matched_frac", m/n)
	L.set("server.dispatch_ns_per_record", float64(sp.dispatchCPU)/m)
	L.setNote("server.dispatch_blocked_s", (sp.dispatchWall - sp.dispatchCPU).Seconds(), "wall less thread CPU inside Dispatch")
	L.setNote("staged.records_per_s", n/sp.wall.Seconds(), "one feeding goroutine, %.2f s", sp.wall.Seconds())
	L.set("proc.cpu_s", sp.use.cpu.Seconds())
	L.set("proc.gc_cpu_frac", sp.use.gc/sp.use.cpu.Seconds())
	L.set("proc.alloc_bytes_per_record", float64(sp.use.bytes)/n)

	if err := readPathProbes(L, sp.srv, tp, o.Seed, rec); err != nil {
		return err
	}
	state := sp.srv.ExportState()
	if err := hubProbe(L, tp, state); err != nil {
		return err
	}
	if err := storeProbe(L, state, filepath.Join(o.WorkDir, "probe-store")); err != nil {
		return err
	}
	ingestNs, err := interiorProbes(L, tp, rec)
	if err != nil {
		return err
	}

	// Bookkeeping over the staged pass. The feeding thread's stages carry
	// their own CPU time and the runtime accounts for its collector; what
	// ran on other threads is the shards. A second pass with estimation
	// switched off (one window as long as the tape) shows what the shards
	// cost without rounds, so the rounds' CPU is the difference between the
	// two passes, and glue — shard loops, channels, the scheduler — is
	// what is left of the second one after Engine.Ingest's share.
	idle, err := stagedPass(tp, &recorder{}, false)
	if err != nil {
		return err
	}
	offThread := func(p *staged) float64 {
		return p.use.cpu.Seconds() - (p.scanCPU + p.matchCPU + p.dispatchCPU).Seconds() - p.use.gc
	}
	ingest := ingestNs * m / 1e9
	roundCPU := offThread(sp) - offThread(idle)
	glue := offThread(idle) - ingest
	L.setNote("proc.glue_cpu_s", glue, "shard loops, channels and scheduling: off-thread CPU of a pass without rounds, less core.ingest")
	parts := []struct {
		name string
		s    float64
	}{
		{"trace.scan", sp.scanCPU.Seconds()},
		{"mapmatch.match", sp.matchCPU.Seconds()},
		{"server.dispatch", sp.dispatchCPU.Seconds()},
		{"core.ingest (by proxy)", ingest},
		{"core.round (by difference)", roundCPU},
		{"runtime gc", sp.use.gc},
		{"glue", glue},
	}
	cpu := sp.use.cpu.Seconds()
	rep.shares = append(rep.shares, fmt.Sprintf("CPU of the staged pass, proc.cpu_s = %.3f s:", cpu))
	total := 0.0
	for _, p := range parts {
		total += p.s
		rep.shares = append(rep.shares, fmt.Sprintf("  %-28s %7.3f s  %5.1f %%", p.name, p.s, 100*p.s/cpu))
	}
	rep.shares = append(rep.shares, fmt.Sprintf("  %-28s %7.3f s  %5.1f %%", "sum of the rows", total, 100*total/cpu))

	// Self time per span name: a span's duration less what its children
	// cover (fresh's is what neither the server nor the hub accounts for;
	// server.arrival_to_round_end's is batch fill, flush and queue wait;
	// staged.block's is the feeding loop itself).
	self := selfByName(rec.spans[firstSpan:])
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	rep.shares = append(rep.shares, "", "self time by span name, this workload's spans:")
	for _, name := range names {
		rep.shares = append(rep.shares, fmt.Sprintf("  %-28s %9.3f s", name, self[name]))
	}
	return nil
}

// liveLayers reads what the live laps show: OnRound observations of the
// traced laps, and the program's own counters from every lap.
func liveLayers(L *values, wl workload, traced, plain []*lap) {
	all := append(append([]*lap(nil), traced...), plain...)
	var admitted, dedup, connects, buffered, published, received, evictions float64
	var appended, fsyncs, walBytes, storeDropped float64
	var hits, misses, plans, degraded, expanded float64
	var lag, stateUs, routeUs []float64
	var reads, busy, drain float64
	for _, lp := range all {
		admitted += float64(lp.src.Records)
		dedup += float64(lp.src.DedupDropped)
		connects += float64(lp.src.Connects)
		buffered += float64(lp.health.Buffered)
		published += lp.page[`lightd_watch_events_total{outcome="enqueued"}`]
		received += float64(lp.events)
		evictions += lp.page.sumPrefix("lightd_watch_evictions_total")
		if lp.stStats != nil {
			appended += float64(lp.stStats.AppendedRecords)
			fsyncs += float64(lp.stStats.Fsyncs)
			walBytes += float64(lp.stStats.SegmentBytes)
			storeDropped += lp.page[`lightd_wal_records_total{outcome="dropped"}`]
		}
		hits += lp.page[`lightd_route_cache_total{outcome="hit"}`]
		misses += lp.page[`lightd_route_cache_total{outcome="miss"}`]
		plans += lp.page["lightd_route_plans_total"]
		degraded += lp.page["lightd_route_degraded_total"]
		expanded += lp.page["lightd_route_expanded_nodes_sum"]
		lag = append(lag, lp.feed.lagMs...)
		lag = append(lag, lp.reads.LagMs...)
		stateUs = append(stateUs, lp.reads.StateUs...)
		routeUs = append(routeUs, lp.reads.RouteUs...)
		reads += float64(lp.reads.Attempted)
		busy += lp.reads.Busy.Seconds()
		drain += float64(lp.drain) / 1e6
	}
	nl := float64(len(all))
	L.setNote("ingest.admitted", admitted, "over %d laps", len(all))
	L.set("ingest.dedup_dropped", dedup)
	L.set("ingest.connects", connects)
	L.setNote("core.buffered_records", buffered/nl, "mean per lap once ingest stopped")
	L.set("pubsub.events_published", published)
	L.set("pubsub.events_received", received)
	L.set("pubsub.evictions", evictions)
	L.set("store.appended_records", appended)
	L.set("store.fsyncs", fsyncs)
	L.set("store.wal_bytes", walBytes)
	L.set("store.dropped_records", storeDropped)
	L.set("routesvc.cache_hit_frac", ratio(hits, hits+misses))
	L.set("routesvc.degraded_frac", ratio(degraded, plans))
	L.set("routesvc.expanded_nodes_per_plan", ratio(expanded, plans))
	p99, used := tail(stateUs, 99)
	L.setNote("client.read_p99_us", p99, "n=%d, p%g", len(stateUs), used)
	p99, used = tail(routeUs, 99)
	L.setNote("client.route_p99_us", p99, "n=%d, p%g", len(routeUs), used)
	L.setNote("client.reads_per_s", ratio(reads, busy), "back to back within bursts")
	p99, used = tail(lag, 99)
	L.setNote("gen.lag_p99_ms", p99, "n=%d paced lines and read bursts, p%g", len(lag), used)
	L.setNote("gen.drain_ms", drain/nl, "last byte to StopIngest returned, mean per lap")

	var durMs, lockUs, arrive, toClient []float64
	var recomputed, carried, failedKeys, busyS float64
	workersMax := 0
	perShard := map[int]float64{}
	rounds := 0
	for _, lp := range traced {
		arrive = append(arrive, lp.arrivalToRoundEndMs...)
		toClient = append(toClient, lp.roundEndToClientMs...)
		for _, r := range lp.rounds {
			rounds++
			durMs = append(durMs, float64(r.dur)/1e6)
			lockUs = append(lockUs, float64(r.lock)/1e3)
			recomputed += float64(r.recomputed)
			carried += float64(r.carried)
			failedKeys += float64(r.recomputed - r.published)
			busyS += r.dur.Seconds()
			perShard[r.shard] += float64(r.recomputed)
			if r.workers > workersMax {
				workersMax = r.workers
			}
		}
	}
	L.setNote("core.rounds", float64(rounds), "over %d traced laps", len(traced))
	L.set("core.keys_recomputed", recomputed)
	L.set("core.keys_carried", carried)
	L.set("core.failed_keys", failedKeys)
	L.set("core.round_busy_s", busyS)
	L.set("core.round_ms_per_key", ratio(busyS*1e3, recomputed))
	L.set("core.round_workers_max", float64(workersMax))
	p50 := median(durMs)
	p99, used = tail(durMs, 99)
	L.setNote("core.round_p50_ms", p50, "n=%d rounds", len(durMs))
	L.setNote("core.round_p99_ms", p99, "n=%d rounds, p%g", len(durMs), used)
	p50 = median(lockUs)
	p99, used = tail(lockUs, 99)
	L.setNote("core.lock_hold_p50_us", p50, "n=%d rounds", len(lockUs))
	L.setNote("core.lock_hold_p99_us", p99, "n=%d rounds, p%g", len(lockUs), used)
	maxShard, sumShard := 0.0, 0.0
	for _, v := range perShard {
		sumShard += v
		if v > maxShard {
			maxShard = v
		}
	}
	L.setNote("server.shard_skew", ratio(maxShard*float64(len(perShard)), sumShard), "max over mean recomputed keys per shard")
	p50 = median(arrive)
	L.setNote("server.arrival_to_round_end_p50_ms", p50, "n=%d rounds", len(arrive))
	p50 = median(toClient)
	p99, used = tail(toClient, 99)
	L.setNote("pubsub.round_end_to_client_p50_ms", p50, "n=%d events", len(toClient))
	L.setNote("pubsub.round_end_to_client_p99_ms", p99, "n=%d events, p%g", len(toClient), used)

	// Tracing overhead: what the traced laps lost against the plain ones.
	// A replay shows it in records/s; a paced feed's rate is pinned, so
	// there it is CPU per record.
	rate := func(laps []*lap) float64 {
		var recs, denom float64
		for _, lp := range laps {
			recs += float64(lp.records)
			if wl.Paced {
				denom += lp.use.cpu.Seconds()
			} else {
				denom += lp.wall.Seconds()
			}
		}
		return ratio(recs, denom)
	}
	L.setNote("trace.overhead_frac", 1-ratio(rate(traced), rate(plain)), "%d traced against %d plain laps", len(traced), len(plain))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sampleAllocs is mallocs per record of the scanner and the matcher with
// nothing else running.
func sampleAllocs(tp *tape) (scan, match float64, err error) {
	f, err := os.Open(tp.Path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	recs := make([]trace.Record, 0, allocSample)
	sc := trace.NewLenientScanner(f, server.DefaultConfig().Lenient)
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for len(recs) < cap(recs) && sc.Scan() {
		recs = append(recs, sc.Record())
	}
	runtime.ReadMemStats(&m1)
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("alloc sample: %w", err)
	}
	for _, r := range recs {
		tp.Matcher.Match(r)
	}
	runtime.ReadMemStats(&m2)
	n := float64(len(recs))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m2.Mallocs-m1.Mallocs) / n, nil
}

// staged is the single-feeder pass over a tape.
type staged struct {
	srv                       *server.Server
	records, matched, skipped int
	scanCPU, matchCPU         time.Duration
	dispatchCPU, dispatchWall time.Duration
	wall                      time.Duration
	use                       usage
}

// stagedPass feeds the whole tape through Scanner.Scan, Matcher.Match and
// Server.Dispatch on one goroutine pinned to its thread, one span per
// stage per block with the thread's CPU time in it, into a started
// server whose shards estimate as they would live (or, with rounds off,
// only buffer). It is the single-threaded baseline of the ingest front
// half, and the server it leaves behind, ingest stopped, is what the
// read-path probes query.
func stagedPass(tp *tape, rec *recorder, rounds bool) (*staged, error) {
	probe := &roundProbe{}
	cfg := benchConfig(tp)
	cfg.OnRound = probe.onRound
	if !rounds {
		// One window and one interval longer than any tape: the engines
		// buffer and never estimate.
		cfg.Realtime.Window, cfg.Realtime.Interval = 1e9, 1e9
	}
	srv, err := newServer(tp, cfg)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(tp.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sp := &staged{srv: srv}
	sc := trace.NewLenientScanner(f, cfg.Lenient)
	block := make([]trace.Record, 0, stagedBlock)
	ms := make([]mapmatch.Matched, 0, stagedBlock)
	ctx := context.Background()

	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	srv.Start()
	u0 := readUsage()
	for b := 0; ; b++ {
		id := fmt.Sprintf("staged/block%d", b)
		blockStart := nowNs()
		c0 := threadCPU()
		block = block[:0]
		for len(block) < stagedBlock && sc.Scan() {
			block = append(block, sc.Record())
		}
		t1, c1 := nowNs(), threadCPU()
		if len(block) == 0 {
			break
		}
		ms = ms[:0]
		for _, r := range block {
			if m, ok := tp.Matcher.Match(r); ok {
				ms = append(ms, m)
			}
		}
		t2, c2 := nowNs(), threadCPU()
		srv.Dispatch(ctx, ms)
		t3, c3 := nowNs(), threadCPU()
		root := rec.add(span{Trace: id, Name: "staged.block", Start: blockStart, End: t3})
		rec.add(span{Parent: root, Trace: id, Name: "trace.scan", Start: blockStart, End: t1, CPU: int64(c1 - c0)})
		rec.add(span{Parent: root, Trace: id, Name: "mapmatch.match", Start: t1, End: t2, CPU: int64(c2 - c1)})
		rec.add(span{Parent: root, Trace: id, Name: "server.dispatch", Start: t2, End: t3, CPU: int64(c3 - c2)})
		sp.records += len(block)
		sp.matched += len(ms)
		sp.scanCPU += c1 - c0
		sp.matchCPU += c2 - c1
		sp.dispatchCPU += c3 - c2
		sp.dispatchWall += time.Duration(t3 - t2)
	}
	srv.StopIngest()
	u1 := readUsage()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("staged pass: %w", err)
	}
	sp.use = usageDelta(u0, u1)
	sp.wall = u1.wall.Sub(u0.wall)
	sp.skipped = sc.Stats().Skipped
	for _, r := range probe.rounds {
		rec.add(span{Trace: fmt.Sprintf("staged/shard%d/round@%g", r.shard, r.at), Name: "core.round", Start: r.endNs - int64(r.dur), End: r.endNs})
	}
	return sp, nil
}

// nullWriter is the cheapest ResponseWriter: the probes time the handler,
// not a recorder.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }

// readPathProbes times the read path without a socket: the handler of
// each endpoint against the staged server at rest, and the planner.
func readPathProbes(L *values, srv *server.Server, tp *tape, seed int64, rec *recorder) error {
	h := srv.Handler()
	_, body, _ := srv.SnapshotBytes()
	var doc server.SnapshotDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	served := servedKeys(doc)
	if len(served) == 0 {
		return fmt.Errorf("read probes: staged server serves no approach")
	}
	rng := rand.New(rand.NewSource(seed))
	w := &nullWriter{h: http.Header{}}
	// serve times ops requests drawn from reqs. anyStatus accepts whatever
	// the handler answers: /healthz says 503 at rest (the feed is silent),
	// which is still the handler's work.
	serve := func(name string, ops int, reqs []*http.Request, before func(), anyStatus bool) (nsPerOp, allocsPerOp float64, err error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		total := int64(0)
		for i := 0; i < ops; i++ {
			if before != nil {
				before()
			}
			r := reqs[rng.Intn(len(reqs))]
			clear(w.h)
			w.code = http.StatusOK
			t0 := nowNs()
			h.ServeHTTP(w, r)
			t1 := nowNs()
			total += t1 - t0
			rec.add(span{Trace: fmt.Sprintf("probe%s/%d", name, i), Name: "server" + name, Start: t0, End: t1})
			if w.code != http.StatusOK && !anyStatus {
				return 0, 0, fmt.Errorf("read probes: %s answered %d", r.URL, w.code)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(total) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops), nil
	}
	get := func(path string) []*http.Request {
		r, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			panic(err) // the paths are literals of this file
		}
		return []*http.Request{r}
	}
	var stateReqs []*http.Request
	for _, k := range served {
		stateReqs = append(stateReqs, get(fmt.Sprintf("/v1/state/%d/%s", k.Light, k.Approach))...)
	}
	ns, allocs, err := serve("/v1/state", readProbeOps, stateReqs, nil, false)
	if err != nil {
		return err
	}
	L.setNote("server.state_ns_per_op", ns, "n=%d, handler only", readProbeOps)
	L.set("server.state_allocs_per_op", allocs)
	if ns, _, err = serve("/v1/snapshot", readProbeOps, get("/v1/snapshot"), nil, false); err != nil {
		return err
	}
	L.setNote("server.snapshot_ns_per_op", ns, "n=%d, cached body", readProbeOps)
	// Re-priming one unchanged estimate bumps its engine's version, which
	// is what invalidates the cached body after a round.
	var one []core.Result
	for _, as := range srv.ExportState().Approaches {
		one = []core.Result{as.Result}
		break
	}
	if ns, _, err = serve("/v1/snapshot", rebuildOps, get("/v1/snapshot"), func() { srv.PrimeResults(one) }, false); err != nil {
		return err
	}
	L.setNote("server.snapshot_rebuild_ns_per_op", ns, "n=%d", rebuildOps)
	if ns, _, err = serve("/healthz", slowProbeOps, get("/healthz"), nil, true); err != nil {
		return err
	}
	L.setNote("server.healthz_ns_per_op", ns, "n=%d", slowProbeOps)
	if ns, _, err = serve("/metrics", slowProbeOps, get("/metrics"), nil, false); err != nil {
		return err
	}
	L.setNote("server.metrics_ns_per_op", ns, "n=%d", slowProbeOps)

	route := srv.RouteService()
	nodes := tp.Nodes
	planUs := make([]float64, 0, planProbeOps)
	for i := 0; i < planProbeOps; i++ {
		src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if src == dst {
			continue
		}
		t0 := nowNs()
		_, err := route.Plan(src, dst, route.Now(), false)
		t1 := nowNs()
		if err != nil {
			return fmt.Errorf("read probes: plan %d to %d: %w", src, dst, err)
		}
		rec.add(span{Trace: fmt.Sprintf("probe/plan/%d", i), Name: "routesvc.plan", Start: t0, End: t1})
		planUs = append(planUs, float64(t1-t0)/1e3)
	}
	p50 := median(planUs)
	L.setNote("routesvc.plan_us_p50", p50, "n=%d plans", len(planUs))
	return nil
}

// hubProbe times pubsub.Hub.Publish on a hub of the harness's own with
// one subscriber on every key, a round-wave of the final estimates at a
// time.
func hubProbe(L *values, tp *tape, state core.EngineState) error {
	hub := pubsub.NewHub(pubsub.Config{MaxKeysPerSub: len(tp.Keys), QueueLen: len(tp.Keys)})
	sub, err := hub.Subscribe(tp.Keys)
	if err != nil {
		return fmt.Errorf("hub probe: %w", err)
	}
	defer hub.Unsubscribe(sub)
	var events []pubsub.Event
	for k, as := range state.Approaches {
		events = append(events, pubsub.Event{Key: k, Est: core.Estimate{Result: as.Result}, Health: "fresh", Version: 1})
	}
	if len(events) == 0 {
		return fmt.Errorf("hub probe: no estimate to publish")
	}
	total, n := int64(0), 0
	for i := 0; i < publishRounds; i++ {
		t0 := nowNs()
		st := hub.Publish("probe", state.Now, t0, events)
		total += nowNs() - t0
		n += st.Delivered
		if st.Evicted > 0 {
			return fmt.Errorf("hub probe: subscriber evicted")
		}
		for j := 0; j < st.Delivered; j++ {
			(<-sub.Frames()).Release()
		}
	}
	L.setNote("pubsub.publish_ns_per_event", float64(total)/float64(n), "n=%d events, one subscriber", n)
	return nil
}

// storeProbe times the store on its own: appends of one shard-round of
// estimates at a time, then full checkpoints, then the CRC walk.
func storeProbe(L *values, state core.EngineState, dir string) (err error) {
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	st, err := store.Open(dir, store.DefaultConfig())
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	defer st.Close() // the success path checks Close below
	var recs []store.Record
	for _, as := range state.Approaches {
		if r, ok := store.FromResult(as.Result); ok {
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		return fmt.Errorf("store probe: no estimate to persist")
	}
	shards := server.DefaultConfig().Shards
	per := (len(recs) + shards - 1) / shards
	total, batches := int64(0), 0
	for round := 0; round < appendRounds; round++ {
		for lo := 0; lo < len(recs); lo += per {
			hi := lo + per
			if hi > len(recs) {
				hi = len(recs)
			}
			batch := recs[lo:hi]
			for i := range batch {
				batch[i].WindowEnd += 300
			}
			t0 := nowNs()
			if err := st.Append(batch...); err != nil {
				return fmt.Errorf("store probe: %w", err)
			}
			total += nowNs() - t0
			batches++
		}
	}
	L.setNote("store.append_us_per_batch", float64(total)/1e3/float64(batches), "n=%d batches of <=%d records, harness-owned store", batches, per)
	var ckpt []float64
	for i := 0; i < checkpointReps; i++ {
		t0 := nowNs()
		if err := st.Checkpoint(state); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		ckpt = append(ckpt, float64(nowNs()-t0)/1e6)
	}
	L.setNote("store.checkpoint_ms", median(ckpt), "median of %d, %d approaches", len(ckpt), len(state.Approaches))
	if err := st.Close(); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	rep, err := store.Verify(dir)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("store probe: verify: %v", rep.Problems)
	}
	return nil
}

// interiorProbes takes a round apart by proxy. The tape is scanned and
// matched once more into per-approach buffers; at every sixth round
// boundary the public pieces of the pipeline are called on the window an
// engine would see, one span per call. The tape's last window is also
// what Engine.Ingest is timed on, into an engine of the harness's own.
// It returns Ingest's cost per record.
func interiorProbes(L *values, tp *tape, rec *recorder) (ingestNsPerRecord float64, err error) {
	f, err := os.Open(tp.Path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rcfg := core.DefaultRealtimeConfig()
	pcfg := rcfg.Pipeline
	part := mapmatch.Partition{}
	var resampler dsp.Resampler
	plans := map[int]*dsp.FFTPlan{}
	var stopMs, cycleUs, redUs, changeUs, resampleUs, fftUs []float64
	timed := func(name, trace string, dst *[]float64, unit float64, fn func()) {
		t0 := nowNs()
		fn()
		t1 := nowNs()
		rec.add(span{Trace: trace, Name: name, Start: t0, End: t1})
		*dst = append(*dst, float64(t1-t0)/unit)
	}
	takeApart := func(at float64) error {
		t0 := at - rcfg.Window
		view := mapmatch.Partition{}
		for k, ms := range part {
			lo := sort.Search(len(ms), func(i int) bool { return ms[i].T >= t0 })
			if lo > 0 {
				ms = ms[lo:]
				part[k] = ms
			}
			if len(ms) > 0 {
				view[k] = ms
			}
		}
		trace := fmt.Sprintf("interior/round@%g", at)
		var idx *core.StopIndex
		var ierr error
		timed("core.stopindex", trace, &stopMs, 1e6, func() { idx, ierr = core.BuildStopIndex(view, pcfg.Stops) })
		if ierr != nil {
			return ierr
		}
		for k, ms := range view {
			samples := core.SpeedSamplesNear(idx.FilterDwellRecords(ms), pcfg.MaxSpeedDist)
			ktrace := fmt.Sprintf("%s/%d:%s", trace, k.Light, k.Approach)
			var cycle float64
			var cerr error
			timed("core.cycle", ktrace, &cycleUs, 1e3, func() { cycle, cerr = core.IdentifyCycle(samples, t0, at, pcfg.Cycle) })
			if cerr != nil {
				continue // too little data in this window; the engine would skip the key too
			}
			var red float64
			var rerr error
			timed("core.red", ktrace, &redUs, 1e3, func() { red, rerr = core.IdentifyRed(idx.Stops(k), cycle, pcfg.Red) })
			folded, ferr := core.Superpose(windowed(samples, t0, at), cycle, t0)
			if rerr == nil && ferr == nil {
				timed("core.change", ktrace, &changeUs, 1e3, func() { _, _ = core.IdentifyChange(folded, cycle, red) })
			}
			in := dsp.MergeDuplicateTimes(windowed(samples, t0, at))
			var grid []float64
			var gerr error
			timed("dsp.resample", ktrace, &resampleUs, 1e3, func() { grid, gerr = resampler.Spline(in, t0, at-1) })
			if gerr != nil {
				continue
			}
			plan := plans[len(grid)]
			if plan == nil {
				if plan, gerr = dsp.NewFFTPlan(len(grid)); gerr != nil {
					return gerr
				}
				plans[len(grid)] = plan
			}
			timed("dsp.fft", ktrace, &fftUs, 1e3, func() { _, _ = plan.MagnitudesReal(grid) })
		}
		return nil
	}

	sc := trace.NewLenientScanner(f, server.DefaultConfig().Lenient)
	first := true
	next, boundary := 0.0, 0
	for sc.Scan() {
		m, ok := tp.Matcher.Match(sc.Record())
		if !ok {
			continue
		}
		if first {
			first, next = false, m.T+rcfg.Interval
		}
		for m.T > next {
			boundary++
			if boundary%interiorEvery == 0 {
				if err := takeApart(next); err != nil {
					return 0, fmt.Errorf("interior probes: %w", err)
				}
			}
			next += rcfg.Interval
		}
		k := mapmatch.Key{Light: m.Light, Approach: m.Approach}
		part[k] = append(part[k], m)
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("interior probes: %w", err)
	}
	if len(cycleUs) == 0 {
		// A tape shorter than six intervals: take its end apart instead.
		if err := takeApart(next); err != nil {
			return 0, fmt.Errorf("interior probes: %w", err)
		}
	}
	L.setNote("core.stopindex_ms_per_round", mean(stopMs), "n=%d whole-city windows", len(stopMs))
	L.setNote("core.cycle_us_per_key", mean(cycleUs), "n=%d", len(cycleUs))
	L.setNote("core.red_us_per_key", mean(redUs), "n=%d", len(redUs))
	L.setNote("core.change_us_per_key", mean(changeUs), "n=%d", len(changeUs))
	L.setNote("dsp.resample_us_per_window", mean(resampleUs), "n=%d", len(resampleUs))
	L.setNote("dsp.fft_us_per_window", mean(fftUs), "n=%d", len(fftUs))

	// Engine.Ingest on what is left in the buffers: the tape's last window,
	// in stream order, a dispatcher's batch at a time.
	var last []mapmatch.Matched
	for _, ms := range part {
		last = append(last, ms...)
	}
	sort.SliceStable(last, func(i, j int) bool { return last[i].T < last[j].T })
	eng, err := core.NewEngine(rcfg)
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for lo := 0; lo < len(last); lo += ingestBatch {
		hi := lo + ingestBatch
		if hi > len(last) {
			hi = len(last)
		}
		t0 := nowNs()
		eng.Ingest(last[lo:hi])
		t1 := nowNs()
		total += t1 - t0
		rec.add(span{Trace: fmt.Sprintf("interior/ingest/%d", lo/ingestBatch), Name: "core.ingest", Start: t0, End: t1})
	}
	ingestNsPerRecord = ratio(float64(total), float64(len(last)))
	L.setNote("core.ingest_ns_per_record", ingestNsPerRecord, "n=%d records into a harness-owned engine", len(last))
	return ingestNsPerRecord, nil
}

// windowed keeps the samples inside [t0, t1].
func windowed(s []dsp.Sample, t0, t1 float64) []dsp.Sample {
	out := make([]dsp.Sample, 0, len(s))
	for _, x := range s {
		if x.T >= t0 && x.T <= t1 {
			out = append(out, x)
		}
	}
	return out
}
