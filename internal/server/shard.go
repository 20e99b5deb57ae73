package server

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/mapmatch"
	"taxilight/internal/store"
)

// shard owns one core.Engine and the goroutine that feeds it. Ingest is
// sharded by hashed partition key, so every record of one signal
// approach lands on the same engine and the engines never contend on a
// shared lock: the serving layer scales with cores the same way the
// batch pipeline does (DESIGN.md §6).
type shard struct {
	engine *core.Engine
	// in carries matched-record batches from the dispatchers. The
	// channel is bounded: a shard that cannot keep up pushes back on the
	// ingest source instead of growing without bound.
	in chan []mapmatch.Matched
	// free holds batch slices the engine is done with, emptied, for the
	// dispatchers to refill.
	free chan []mapmatch.Matched
	// maxT is the latest record time (stream seconds) this shard has
	// ingested, the time the engine clock is advanced to. Only the shard
	// goroutine touches it.
	maxT float64
	// lastIngestWall is the wall-clock time (unix nanos) of the last
	// batch, 0 before the first — the liveness signal /healthz reports.
	lastIngestWall atomic.Int64
	// Persistence state, guarded by persistMu because both the shard
	// goroutine and PrimeResults persist (Restore sets lastVersion before
	// Start): the engine version already persisted, so every newly
	// published estimate is appended to the WAL exactly once, and the
	// slice the engine's delta is read into. stopped is set once the
	// goroutine has persisted for the last time; the store queue may be
	// closed after that, so nothing more is sent.
	persistMu   sync.Mutex
	lastVersion uint64
	published   []core.Result
	stopped     bool
}

// freeBatches is how many spare batch slices a shard keeps: what one
// source can have out to it with the default queue (ShardBuffer) full —
// the queued batches, one being ingested, one being filled. A deeper
// queue's backlog is not kept, so a drained burst does not stay on the
// heap.
const freeBatches = 8

// takeBatch returns an empty batch slice, recycled if one is spare.
func (sh *shard) takeBatch(size int) []mapmatch.Matched {
	select {
	case b := <-sh.free:
		return b
	default:
		return make([]mapmatch.Matched, 0, size)
	}
}

// shardIndex hashes a partition key onto one of n shards (FNV-1a over
// the light id and approach).
func shardIndex(k mapmatch.Key, n int) int {
	h := fnv.New32a()
	var b [9]byte
	v := uint64(int64(k.Light))
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	b[8] = byte(k.Approach)
	h.Write(b[:])
	return int(h.Sum32() % uint32(n))
}

// loop is the shard goroutine, driven by its batches alone: ingest each
// batch, advance the engine clock to the newest record time and persist
// what that published, and drain completely before exiting when the
// channel closes (graceful shutdown). Only a record moves the stream
// clock, so a paused feed leaves it where it is.
func (sh *shard) loop(s *Server) {
	defer s.shardWG.Done()
	for batch := range sh.in {
		sh.ingest(s, batch)
		sh.advance(s)
		sh.persist(s)
	}
	sh.advance(s)
	sh.persist(s)
	sh.persistMu.Lock()
	sh.stopped = true
	sh.persistMu.Unlock()
}

// persist enqueues what the engine published since the last persisted
// version onto the store queue: each estimate whose window end moved past
// its approach's earlier ones, read from the engine without copying the
// rest. The send never blocks: a full queue drops the batch with a
// counter, because durability lag must not stall the ingest path. The
// version check makes the common case (a batch between estimation
// passes) a single read-locked load.
func (sh *shard) persist(s *Server) {
	sh.persistMu.Lock()
	defer sh.persistMu.Unlock()
	if sh.stopped || s.persistCh == nil || sh.engine.Version() == sh.lastVersion {
		return
	}
	sh.published, sh.lastVersion = sh.engine.AppendPublishedSince(sh.published[:0], sh.lastVersion)
	recs := make([]store.Record, 0, len(sh.published))
	for _, res := range sh.published {
		if rec, ok := store.FromResult(res); ok {
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		return
	}
	select {
	case s.persistCh <- recs:
	default:
		s.met.walDropped.Add(int64(len(recs)))
	}
}

// ingest feeds one batch to the engine, updates the shard's clocks and
// recycles the batch slice: the engine keeps its own compact copy of
// every record, so the slice is cleared (a parked slice must not pin
// plate strings) and offered back to the dispatchers.
func (sh *shard) ingest(s *Server, batch []mapmatch.Matched) {
	sh.engine.Ingest(batch)
	for i := range batch {
		if t := batch[i].T; t > sh.maxT {
			sh.maxT = t
		}
	}
	sh.lastIngestWall.Store(time.Now().UnixNano())
	clear(batch)
	select {
	case sh.free <- batch[:0]:
	default:
	}
}

// advance moves the engine clock to the shard's newest record time. The
// engine only does real work when the stream clock crosses an estimation
// interval, so calling this per batch is cheap. Advance errors are
// counted, not fatal: one bad pass must not stop the serving loop.
func (sh *shard) advance(s *Server) {
	if sh.maxT <= sh.engine.Now() {
		return
	}
	changes, err := sh.engine.Advance(sh.maxT)
	if err != nil {
		s.met.advanceErrors.Add(1)
		return
	}
	if len(changes) > 0 {
		s.met.schedChanges.Add(int64(len(changes)))
	}
}
