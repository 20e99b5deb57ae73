package server

import (
	"hash/fnv"
	"sync/atomic"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/mapmatch"
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
// batch and advance the engine clock to the newest record time (the round
// observer hands what a round published on), and drain completely before
// exiting when the channel closes (graceful shutdown). Only a record
// moves the stream clock, so a paused feed leaves it where it is.
func (sh *shard) loop(s *Server) {
	defer s.shardWG.Done()
	for batch := range sh.in {
		sh.ingest(s, batch)
		sh.advance(s)
	}
	sh.advance(s)
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
