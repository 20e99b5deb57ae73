// Package server is the network-facing serving subsystem: the layer that
// turns the in-process realtime engine into the paper's end product — a
// service drivers query for "is this light red, and for how long?"
// against live taxi feeds (§V). Trace ingest is sharded across N
// core.Engine instances by hashed partition key (one goroutine and one
// bounded channel per shard), and an HTTP JSON API serves per-approach
// state with countdown, a cached whole-city snapshot revalidated via
// ETag, engine health, and Prometheus metrics.
package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/ingest"
	"taxilight/internal/mapmatch"
	"taxilight/internal/metrics"
	"taxilight/internal/pubsub"
	"taxilight/internal/routesvc"
	"taxilight/internal/store"
	"taxilight/internal/trace"
)

// Config tunes the serving daemon.
type Config struct {
	// Shards is the number of engine shards; ingest keys are hashed
	// across them. More shards mean more estimation parallelism and
	// smaller per-engine locks.
	Shards int
	// ShardBuffer is the per-shard channel capacity in batches; a full
	// channel blocks the dispatcher (backpressure on the source). The
	// default, freeBatches − 2, is as deep as a shard's spares allow: the
	// queued batches, the one being ingested and the one being filled all
	// come back as spares, so a backlog drained after a round leaves no
	// batch slice for the collector.
	ShardBuffer int
	// BatchSize caps how many matched records a dispatcher accumulates
	// for one shard before sending.
	BatchSize int
	// FlushEvery bounds how long a dispatcher may hold a partial batch,
	// so a slow (paced) feed still reaches the engines promptly.
	FlushEvery time.Duration
	// Lenient configures the malformed-line budget of every ingest
	// scanner (see trace.LenientConfig).
	Lenient trace.LenientConfig
	// Ingest tunes the source supervisor: reconnect backoff, circuit
	// breaker, accept-retry cadence.
	Ingest ingest.Config
	// Realtime configures each shard's engine.
	Realtime core.RealtimeConfig
	// ReadTimeout/WriteTimeout harden the HTTP listener (with the fixed
	// idleTimeout); 0 means none, as in http.Server. ShutdownGrace bounds
	// how long graceful shutdown waits for in-flight requests.
	ReadTimeout   time.Duration
	WriteTimeout  time.Duration
	ShutdownGrace time.Duration
	// Store, when non-nil, receives every published estimate
	// asynchronously and periodic full checkpoints, and backs the
	// /v1/history and as-of endpoints. The server drives the store but
	// does not own it: the caller opens and closes it.
	Store *store.Store
	// CheckpointInterval is the wall-clock cadence of full checkpoints;
	// 0 checkpoints only at shutdown. Ignored without a Store.
	CheckpointInterval time.Duration
	// MaxInFlight bounds concurrently served HTTP requests; excess load
	// is shed with 429 + Retry-After so a hot scrape loop cannot starve
	// the daemon. /healthz and /metrics are exempt — operators must see
	// a daemon that is shedding. 0 disables the limiter.
	MaxInFlight int
	// MaxSubscribers caps concurrent /v1/watch subscriptions; excess
	// subscription attempts are shed with the same jittered 429 +
	// Retry-After as the in-flight limiter. Watch streams do not count
	// against MaxInFlight — they are long-lived by design and have their
	// own cap. 0 means unlimited.
	MaxSubscribers int
	// MaxWatchKeys caps keys on a single /v1/watch subscription.
	MaxWatchKeys int
	// WatchQueue is the per-subscriber frame queue depth — how many
	// estimation rounds a slow watch client may lag before the hub
	// evicts it at publish time.
	WatchQueue int
	// WatchWriteTimeout is the per-write deadline on a watch stream: a
	// client that cannot drain one frame within it is evicted. It
	// replaces WriteTimeout for /v1/watch (a fixed whole-request write
	// timeout would kill every long-lived stream).
	WatchWriteTimeout time.Duration
	// DebugEndpoints additionally registers /debug/* handlers (panic and
	// block drills). Off in production, on in chaos tests.
	DebugEndpoints bool
	// OnRound, when set, observes every shard's completed estimation
	// rounds (after the built-in metrics are updated). The megacity soak
	// uses it to collect round-time percentiles without scraping.
	OnRound func(shard int, st core.RoundStats)
}

const (
	// idleTimeout is how long the HTTP listener keeps an idle keep-alive
	// connection open.
	idleTimeout = 60 * time.Second
	// storeQueue is the capacity (in record batches) of the bounded
	// persistence queue between the shard loops and the store writer. A
	// full queue drops the batch with a counter — persistence must never
	// stall ingest.
	storeQueue = 256
	// watchHeartbeat is the idle keep-alive cadence on watch streams; a
	// comment frame flushed this often detects dead connections between
	// estimation rounds and keeps intermediaries from timing the stream
	// out.
	watchHeartbeat = 15 * time.Second
	// staleFeedAfter is how long (wall clock) the feed may be silent
	// before /healthz degrades.
	staleFeedAfter = 2 * time.Minute
	// storeFailureBudget is how many consecutive failed WAL appends
	// (ENOSPC, EIO, a yanked disk) the persist writer tolerates before
	// dropping to serving-only mode: further batches are discarded with
	// a counter, checkpoints stop, and /healthz reports "store:
	// degraded" — the daemon keeps answering instead of crashing or
	// silently stalling the persist queue.
	storeFailureBudget = 8
)

// DefaultConfig is the posture lightd starts with: four shards, the
// paper's estimation cadence, lenient ingestion and conservative HTTP
// timeouts.
func DefaultConfig() Config {
	return Config{
		Shards:             4,
		ShardBuffer:        freeBatches - 2,
		BatchSize:          256,
		FlushEvery:         200 * time.Millisecond,
		Lenient:            trace.DefaultLenientConfig(),
		Ingest:             ingest.DefaultConfig(),
		Realtime:           core.DefaultRealtimeConfig(),
		ReadTimeout:        5 * time.Second,
		WriteTimeout:       10 * time.Second,
		ShutdownGrace:      5 * time.Second,
		CheckpointInterval: time.Minute,
		MaxInFlight:        256,
		MaxSubscribers:     100_000,
		MaxWatchKeys:       32,
		WatchQueue:         32,
		WatchWriteTimeout:  5 * time.Second,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Shards <= 0:
		return fmt.Errorf("server: non-positive shard count %d", c.Shards)
	case c.ShardBuffer <= 0:
		return fmt.Errorf("server: non-positive shard buffer %d", c.ShardBuffer)
	case c.BatchSize <= 0:
		return fmt.Errorf("server: non-positive batch size %d", c.BatchSize)
	case c.FlushEvery <= 0:
		return fmt.Errorf("server: non-positive flush cadence %v", c.FlushEvery)
	case c.ReadTimeout < 0 || c.WriteTimeout < 0:
		return fmt.Errorf("server: negative HTTP timeout (read %v, write %v)", c.ReadTimeout, c.WriteTimeout)
	case c.ShutdownGrace < 0:
		return fmt.Errorf("server: negative shutdown grace %v", c.ShutdownGrace)
	case c.CheckpointInterval < 0:
		return fmt.Errorf("server: negative checkpoint interval %v", c.CheckpointInterval)
	case c.MaxInFlight < 0:
		return fmt.Errorf("server: negative in-flight limit %d", c.MaxInFlight)
	case c.MaxSubscribers < 0:
		return fmt.Errorf("server: negative subscriber limit %d", c.MaxSubscribers)
	case c.MaxWatchKeys < 0:
		return fmt.Errorf("server: negative watch key limit %d", c.MaxWatchKeys)
	case c.WatchQueue < 0:
		return fmt.Errorf("server: negative watch queue %d", c.WatchQueue)
	case c.WatchWriteTimeout < 0:
		return fmt.Errorf("server: negative watch write timeout %v", c.WatchWriteTimeout)
	}
	if err := c.Ingest.Validate(); err != nil {
		return err
	}
	return c.Realtime.Validate()
}

// Server shards trace ingest across engines and serves the HTTP API.
// Construct with New, launch shard loops with Start, feed it via
// RunSources (or Dispatch), and serve the handler from ListenAndServe.
type Server struct {
	cfg     Config
	matcher *mapmatch.Matcher
	shards  []*shard
	reg     *metrics.Registry
	met     *serverMetrics
	snap    snapshotCache
	// hub fans each estimation round's published keys out to /v1/watch
	// subscribers (the push read path).
	hub *pubsub.Hub

	shardWG  sync.WaitGroup
	started  bool
	stopOnce sync.Once

	// Supervised ingest (set by RunSources) and the HTTP in-flight
	// limiter (nil when MaxInFlight is 0).
	supMu    sync.Mutex
	sup      *ingest.Supervisor
	inflight chan struct{}

	// Persistence plumbing (nil/idle without a configured Store): publish
	// enqueues newly published estimates, one writer drains the queue into
	// the WAL, and a timer takes full checkpoints. persistCh is open from
	// Start to StopIngest; publish sends and StopIngest takes it away under
	// queueMu, so a prime racing the shutdown never sends on a closed
	// queue.
	// storeDegraded latches once storeFailureBudget consecutive appends
	// fail; the daemon then serves without persisting.
	queueMu       sync.Mutex
	persistCh     chan []store.Record
	persistWG     sync.WaitGroup
	ckptStop      chan struct{}
	ckptWG        sync.WaitGroup
	storeDegraded atomic.Bool

	// hooks are the cluster layer's callbacks; zero for a single node.
	hooks ClusterHooks

	// route is the optional routing service behind /v1/route, installed
	// with SetRouteService (an atomic pointer because the cluster layer
	// captures Handler() before lightd can wire routing). routeEpoch is
	// the prediction-cache fence: it moves whenever any engine's content
	// may have changed, so cached per-edge wait lookups from earlier
	// rounds are discarded without touching engine locks to find out.
	route      atomic.Pointer[routesvc.Service]
	routeEpoch atomic.Uint64
}

// ClusterHooks are the callbacks a cluster node installs into a server
// with SetClusterHooks before Start. Every field may be nil.
type ClusterHooks struct {
	// KeyOwned filters matched records at ingest: records whose
	// partition key returns false are counted and dropped before
	// dispatch, so a cluster node ingests only the keys it owns.
	KeyOwned func(mapmatch.Key) bool
	// HealthOverride may rewrite the health label served for one key —
	// a node caps keys promoted from replicated state at "stale" until
	// the next local estimation round refreshes them.
	HealthOverride func(k mapmatch.Key, health string) string
	// Health is rendered into /healthz as the "cluster" section.
	Health func() any
	// OnPersist runs after every successful WAL append with the store's
	// newest sequence number and the distinct keys the batch carried —
	// the replication notification trigger, and the cluster layer's
	// under-replication bookkeeping (a key is behind on its replicas
	// from the moment it is appended until their pull cursors pass it).
	OnPersist func(lastSeq uint64, keys []mapmatch.Key)
}

// SetClusterHooks installs the cluster layer's callbacks. Must be
// called before Start and before any request is served.
func (s *Server) SetClusterHooks(h ClusterHooks) { s.hooks = h }

// Metrics returns the registry /metrics is written from, for a layer
// above the server (the cluster node) to register its own families on —
// like the hooks, before any request is served.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// New builds a server with cfg.Shards idle engines. matcher attributes
// raw records to signal approaches; it may be nil when the caller feeds
// pre-matched records via Dispatch only.
func New(matcher *mapmatch.Matcher, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	s := &Server{
		cfg:     cfg,
		matcher: matcher,
		reg:     reg,
		met:     newMetrics(reg, endpointNames, cfg.Store != nil),
	}
	s.hub = pubsub.NewHub(pubsub.Config{
		MaxSubscribers: cfg.MaxSubscribers,
		MaxKeysPerSub:  cfg.MaxWatchKeys,
		QueueLen:       cfg.WatchQueue,
	})
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	s.registerCollectors()
	for i := 0; i < cfg.Shards; i++ {
		engCfg := cfg.Realtime
		// Shards phase their rounds across the interval: N synchronized
		// dense rounds are an N-times CPU spike every Interval, staggered
		// ones a rolling load.
		if cfg.Shards > 1 {
			engCfg.RoundOffset = shardRoundOffset(i, cfg.Shards, cfg.Realtime.Interval)
		}
		eng, err := core.NewEngine(engCfg)
		if err != nil {
			return nil, err
		}
		shardID := i
		eng.SetRoundObserver(func(st core.RoundStats) {
			s.met.estimateRound.Observe(st.Duration.Seconds())
			s.met.estimateLockHold.Observe(st.LockHold.Seconds())
			for i, d := range [...]time.Duration{st.Snapshot, st.StopIndex, st.Identify, st.Publish} {
				s.met.estimateStage[i].Observe(d.Seconds())
			}
			s.met.keysRecomputed.Add(int64(st.Recomputed))
			s.met.keysCarried.Add(int64(st.Carried))
			s.met.estimateRounds.Add(1)
			s.met.estimateWorkers.Set(float64(st.Workers))
			s.publish(eng, st.At, st.Published)
			if fn := s.cfg.OnRound; fn != nil {
				fn(shardID, st)
			}
		})
		s.shards = append(s.shards, &shard{
			engine: eng,
			in:     make(chan []mapmatch.Matched, cfg.ShardBuffer),
			free:   make(chan []mapmatch.Matched, freeBatches),
		})
	}
	return s, nil
}

// shardRoundOffset phases shard i's estimation rounds within the
// interval: an even i·(interval/n) base spread plus a deterministic
// jitter of up to a quarter-slot, keyed by the shard index, so shards
// whose clocks advance in lockstep still never start rounds together.
// With jitter < slot/4, any two shards' offsets stay at least
// 0.75·(interval/n) apart, including the wrap-around pair, and every
// offset stays inside [0, interval) as RealtimeConfig.Validate requires.
func shardRoundOffset(i, n int, interval float64) float64 {
	slot := interval / float64(n)
	h := fnv.New32a()
	fmt.Fprintf(h, "round-stagger/%d", i)
	jitter := float64(h.Sum32()%1024) / 1024 * slot / 4
	return float64(i)*slot + jitter
}

// Start launches the shard loops and, with a configured Store, the
// persistence writer and checkpoint timer. It must be called before
// Dispatch or RunSources; handlers work without it (they read the engines
// directly).
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	if st := s.cfg.Store; st != nil {
		st.SetObservers(s.met.walAppendLat.Observe, s.met.walFsyncLat.Observe)
		queue := make(chan []store.Record, storeQueue)
		s.queueMu.Lock()
		s.persistCh = queue
		s.queueMu.Unlock()
		s.persistWG.Add(1)
		go s.persistLoop(queue)
		s.ckptStop = make(chan struct{})
		s.ckptWG.Add(1)
		go s.checkpointLoop()
	}
	for _, sh := range s.shards {
		s.shardWG.Add(1)
		go sh.loop(s)
	}
}

// persistLoop is the single store writer: it drains estimate batches
// from the bounded queue into the WAL. Append errors are counted, not
// fatal — a sick disk degrades durability, never serving. Once
// storeFailureBudget consecutive appends fail the writer stops touching
// the store entirely (serving-only mode): batches keep draining so the
// queue never stalls, but they are dropped and counted.
func (s *Server) persistLoop(queue <-chan []store.Record) {
	defer s.persistWG.Done()
	streak := 0
	for batch := range queue {
		if s.storeDegraded.Load() {
			s.met.walDropped.Add(int64(len(batch)))
			continue
		}
		if err := s.cfg.Store.Append(batch...); err != nil {
			s.met.walErrors.Add(int64(len(batch)))
			s.met.storeWriteErrors.Add(1)
			streak++
			if streak >= storeFailureBudget {
				s.storeDegraded.Store(true)
			}
			continue
		}
		streak = 0
		s.met.walAppended.Add(int64(len(batch)))
		if fn := s.hooks.OnPersist; fn != nil {
			keys := make([]mapmatch.Key, 0, len(batch))
			seen := make(map[mapmatch.Key]struct{}, len(batch))
			for _, rec := range batch {
				k := rec.Key()
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				keys = append(keys, k)
			}
			fn(s.cfg.Store.LastSeq(), keys)
		}
	}
}

// checkpointLoop takes periodic full checkpoints of the merged shard
// state so recovery replays only a short WAL tail.
func (s *Server) checkpointLoop() {
	defer s.ckptWG.Done()
	if s.cfg.CheckpointInterval <= 0 {
		<-s.ckptStop
		return
	}
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
			s.checkpointNow()
		}
	}
}

// checkpointNow writes one full checkpoint of the merged engine state.
// A degraded store is left alone — the disk already proved sick.
func (s *Server) checkpointNow() {
	if s.storeDegraded.Load() {
		return
	}
	if err := s.cfg.Store.Checkpoint(s.ExportState()); err != nil {
		s.met.ckptErrors.Add(1)
	}
}

// ExportState merges every shard's durable state into one engine state
// (keys are disjoint across shards, so merging is a union; the clock is
// the newest shard clock).
func (s *Server) ExportState() core.EngineState {
	merged := core.EngineState{Approaches: map[mapmatch.Key]core.ApproachState{}}
	for _, sh := range s.shards {
		st := sh.engine.ExportState()
		if st.Now > merged.Now {
			merged.Now = st.Now
		}
		for k, as := range st.Approaches {
			merged.Approaches[k] = as
		}
	}
	return merged
}

// Restore warm-starts the server from recovered state: each approach is
// published on the shard that owns its key exactly as the pre-crash
// engine had it, and every shard's clock moves to st.Now. Call before
// Start: the store queue is not open yet, so the restored estimates are
// not re-appended to the WAL. It returns the number of approaches
// restored.
func (s *Server) Restore(st core.EngineState) int {
	n := s.restore(st)
	s.met.restoredCount.Add(int64(n))
	return n
}

// restore is Restore's and PrimeResults' one body: it routes each
// approach to the shard that owns its key, restores it there through the
// engine's window fence, and hands each shard's published keys to
// publish. It returns how many approaches were published.
func (s *Server) restore(st core.EngineState) int {
	perShard := make([]core.EngineState, len(s.shards))
	for i := range perShard {
		perShard[i] = core.EngineState{Now: st.Now, Approaches: map[mapmatch.Key]core.ApproachState{}}
	}
	for k, as := range st.Approaches {
		perShard[shardIndex(k, len(s.shards))].Approaches[k] = as
	}
	n := 0
	for i, sh := range s.shards {
		if keys := sh.engine.RestoreState(perShard[i]); len(keys) > 0 {
			n += len(keys)
			s.publish(sh.engine, sh.engine.Now(), keys)
		}
	}
	return n
}

// Dispatch routes matched records to their shards, blocking when a
// shard's channel is full (backpressure) unless ctx is cancelled, in
// which case the remainder is dropped and counted.
func (s *Server) Dispatch(ctx context.Context, ms []mapmatch.Matched) {
	if len(ms) == 0 {
		return
	}
	b := s.newBatcher()
	for _, m := range ms {
		b.add(ctx, m)
	}
	b.flushAll(ctx)
}

// sendBatch delivers one batch to one shard, counting it as dropped if
// the context ends first.
func (s *Server) sendBatch(ctx context.Context, idx int, batch []mapmatch.Matched) {
	select {
	case s.shards[idx].in <- batch:
	case <-ctx.Done():
		s.met.ingestDropped.Add(int64(len(batch)))
	}
}

// StopIngest closes the shard channels and waits for every shard to
// drain and run its final Advance — the "drain shards" half of graceful
// shutdown. All sources must have returned before calling it. With a
// configured store it then drains the persistence queue and writes a
// final checkpoint, so a cleanly stopped daemon restarts from a
// checkpoint with an empty replay tail.
func (s *Server) StopIngest() {
	s.stopOnce.Do(func() {
		for _, sh := range s.shards {
			close(sh.in)
		}
	})
	s.shardWG.Wait()
	if s.cfg.Store == nil || !s.started {
		return
	}
	if s.ckptStop != nil {
		close(s.ckptStop)
		s.ckptWG.Wait()
		s.ckptStop = nil
	}
	s.queueMu.Lock()
	queue := s.persistCh
	s.persistCh = nil
	s.queueMu.Unlock()
	if queue != nil {
		close(queue)
		s.persistWG.Wait()
	}
	s.checkpointNow()
}

// Engines exposes the per-shard engines for inspection. The slice is
// owned by the server; do not mutate it.
func (s *Server) Engines() []*core.Engine {
	out := make([]*core.Engine, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.engine
	}
	return out
}

// Summary renders the daemon's final accounting — ingest totals, skip
// classes and engine health — for the shutdown log, so a drained daemon
// leaves its flushed metrics on the operator's terminal.
func (s *Server) Summary() string {
	doc := s.healthReport()
	m := s.met
	skipped := int64(0)
	classes := make(map[string]int64, len(m.skipByClass))
	for c, ctr := range m.skipByClass {
		if n := ctr.Load(); n > 0 {
			classes[c] = n
			skipped += n
		}
	}
	out := fmt.Sprintf("  ingested %d records (%d matched, %d unmatched, %d dropped at dispatch)\n",
		m.ingestRecords.Load(), m.ingestMatched.Load(), m.ingestUnmatched.Load(), m.ingestDropped.Load())
	out += fmt.Sprintf("  scanner: %d lines, %d skipped %v\n", m.scanLines.Load(), skipped, classes)
	out += fmt.Sprintf("  approaches: %d fresh, %d stale, %d quarantined; %d records buffered\n",
		doc.Fresh, doc.Stale, doc.Quarantined, doc.Buffered)
	out += fmt.Sprintf("  engine drops: %d old, %d overflow; %d scheduling changes, %d advance errors",
		doc.DroppedOld, doc.DroppedOverflow, m.schedChanges.Load(), m.advanceErrors.Load())
	if st := s.cfg.Store; st != nil {
		ss := st.Stats()
		out += fmt.Sprintf("\n  store: %d records persisted (%d dropped at queue, %d errors), %d segments / %d B, %d checkpoints, %d fsyncs",
			m.walAppended.Load(), m.walDropped.Load(), m.walErrors.Load(),
			ss.Segments, ss.SegmentBytes, ss.CheckpointsWritten, ss.Fsyncs)
	}
	return out
}

// shardFor returns the shard owning one partition key.
func (s *Server) shardFor(k mapmatch.Key) *shard {
	return s.shards[shardIndex(k, len(s.shards))]
}

// EstimateFor returns one key's published estimate from its owning
// shard.
func (s *Server) EstimateFor(k mapmatch.Key) (core.Estimate, bool) {
	return s.shardFor(k).engine.EstimateFor(k)
}

// StreamNow returns the newest stream clock across the shards.
func (s *Server) StreamNow() float64 {
	now := 0.0
	for _, sh := range s.shards {
		if t := sh.engine.Now(); t > now {
			now = t
		}
	}
	return now
}

// PrimeResults publishes externally supplied results on the shards that
// own their keys — the cluster's failover and cutover paths promoting
// replicated estimates — through the same path as Restore: a result from
// an older window than the one a key serves is refused, and what is
// published reaches the WAL and watch subscribers before PrimeResults
// returns, without waiting for a batch. A key given more than once keeps
// its last result. It returns how many results were published.
func (s *Server) PrimeResults(rs []core.Result) int {
	st := core.EngineState{Approaches: make(map[mapmatch.Key]core.ApproachState, len(rs))}
	for _, r := range rs {
		st.Approaches[r.Key] = core.ApproachState{Result: r}
	}
	return s.restore(st)
}

// publish is the one way an engine's publishes reach the serving side —
// a round's RoundStats.Published, or the keys a Restore or PrimeResults
// published. It moves the route prediction-cache fence, sends one WAL
// batch while the store queue is open (from Start to StopIngest), and
// fans the estimates out to /v1/watch subscribers. It runs on the shard
// loop (the round observer), so it never blocks: the queue send drops a
// batch a full queue cannot take, with a counter, because durability lag
// must not stall ingest, and the hub's enqueues are non-blocking. With no
// store and no subscriber it reads no estimate.
func (s *Server) publish(eng *core.Engine, at float64, keys []mapmatch.Key) {
	s.routeEpoch.Add(1)
	wal, watched := s.cfg.Store != nil, s.hub.Subscribers() > 0
	if len(keys) == 0 || !wal && !watched {
		return
	}
	version := eng.Version()
	var recs []store.Record
	var events []pubsub.Event
	if wal {
		recs = make([]store.Record, 0, len(keys))
	}
	if watched {
		events = make([]pubsub.Event, 0, len(keys))
	}
	for _, k := range keys {
		est, ok := eng.EstimateFor(k)
		if !ok {
			continue
		}
		if wal {
			if rec, ok := store.FromResult(est.Result); ok {
				recs = append(recs, rec)
			}
		}
		if watched {
			events = append(events, pubsub.Event{
				Key:     k,
				Est:     est,
				Health:  s.overrideHealth(k, est.Health.String()),
				Version: version,
			})
		}
	}
	if len(recs) > 0 {
		s.queueMu.Lock()
		if s.persistCh != nil {
			select {
			case s.persistCh <- recs:
			default:
				s.met.walDropped.Add(int64(len(recs)))
			}
		}
		s.queueMu.Unlock()
	}
	if watched {
		s.hub.Publish(s.watchID(), at, time.Now().UnixNano(), events)
	}
}

// SourceStatuses snapshots the supervised ingest sources, or nil before
// RunSources.
func (s *Server) SourceStatuses() []ingest.SourceStatus {
	sup := s.supervisor()
	if sup == nil {
		return nil
	}
	return sup.Snapshot()
}

// ListenAndServe serves the HTTP API on addr with the configured
// timeouts until ctx is cancelled, then shuts down gracefully, waiting
// up to ShutdownGrace for in-flight requests.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	return s.ServeHandler(ctx, addr, s.Handler())
}

// BumpRouteEpoch advances the route prediction-cache fence without an
// estimation round. The cluster layer calls it on every ownership
// change: cached per-edge waits resolved through the old ring must not
// outlive it.
func (s *Server) BumpRouteEpoch() { s.routeEpoch.Add(1) }

// SetRouteService installs the routing service behind /v1/route. Safe
// to call after Handler() — the handler resolves the service per
// request — which matters in cluster mode, where the cluster node
// captures the handler at construction, before routing can be wired.
func (s *Server) SetRouteService(rs *routesvc.Service) { s.route.Store(rs) }

// RouteService returns the installed routing service, or nil.
func (s *Server) RouteService() *routesvc.Service { return s.route.Load() }

// RoutePredictions adapts the server's shard engines into the routing
// service's prediction source: per-key estimate lookup with the cluster
// health override applied, fenced by the round-observer epoch.
func (s *Server) RoutePredictions() routesvc.PredictionSource {
	return &enginePredictions{s: s}
}

type enginePredictions struct{ s *Server }

func (p *enginePredictions) Predict(k mapmatch.Key) (core.Estimate, string, bool) {
	est, ok := p.s.EstimateFor(k)
	if !ok {
		return core.Estimate{}, "", false
	}
	return est, p.s.overrideHealth(k, est.Health.String()), true
}

func (p *enginePredictions) Epoch() uint64 { return p.s.routeEpoch.Load() }
func (p *enginePredictions) Now() float64  { return p.s.StreamNow() }

// ServeHandler is ListenAndServe with a caller-supplied root handler —
// the cluster layer wraps the server's handler with ring routing.
func (s *Server) ServeHandler(ctx context.Context, addr string, h http.Handler) error {
	hs := &http.Server{
		Addr:         addr,
		Handler:      h,
		ReadTimeout:  s.cfg.ReadTimeout,
		WriteTimeout: s.cfg.WriteTimeout,
		IdleTimeout:  idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}
