package server

import (
	"context"
	"fmt"
	"time"

	"taxilight/internal/ingest"
	"taxilight/internal/mapmatch"
	"taxilight/internal/trace"
)

// RunSources ingests every feed named in the comma-separated specs
// under the ingest supervisor and blocks until all finite sources have
// drained and ctx has ended:
//
//	"-"               stdin (the `tracegen -stream | lightd -in -` path)
//	tcp://addr        listen on addr for push feeds
//	tcp+dial://addr   dial addr, reconnect with backoff, dedup replays
//	anything else     a file path, ".gz"-aware
//
// Each entry may carry a "name=" prefix labelling the source in
// /healthz and /metrics. Every connection goes through the lenient
// scanner: malformed lines are skipped and surface per error class in
// /metrics, and only blowing the malformed-fraction budget ends that
// connection — which for supervised network sources means a reconnect,
// not death.
func (s *Server) RunSources(ctx context.Context, specs string) error {
	if s.matcher == nil {
		return fmt.Errorf("server: RunSources needs a matcher (built with New(matcher, cfg))")
	}
	parsed, err := ingest.ParseSpecs(specs)
	if err != nil {
		return err
	}
	sup, err := ingest.NewSupervisor(parsed, s.cfg.Ingest, s.cfg.Lenient, s.consumeSource)
	if err != nil {
		return err
	}
	s.supMu.Lock()
	s.sup = sup
	s.supMu.Unlock()
	return sup.Run(ctx)
}

// supervisor returns the running ingest supervisor, or nil before
// RunSources (handlers must degrade gracefully either way).
func (s *Server) supervisor() *ingest.Supervisor {
	s.supMu.Lock()
	defer s.supMu.Unlock()
	return s.sup
}

// consumeSource drains one supervised connection, letting the source's
// resume-dedup gate reject records a reconnect replayed.
func (s *Server) consumeSource(ctx context.Context, sc *trace.Scanner, src *ingest.Source) error {
	return s.ingestScanner(ctx, sc, src.Admit)
}

// Records cross from the scan goroutine to the dispatch loop in blocks:
// one channel operation and one round of counter updates per block
// instead of per record. Four blocks are ever in flight — one filling,
// two queued, one being walked — so they come from a free list of that
// many and a steady feed allocates none.
const (
	blockRecords = 64
	blocksQueued = 2 // the 128 records of slack the scanner may run ahead
)

// ingestScanner is the dispatch loop: parse → admit → map-match → batch
// by shard → send. Scanning runs in its own goroutine feeding a channel
// so the loop can select a flush ticker: batches flush when full and at
// least every FlushEvery even when no new record arrives — a paused
// feed must not hold matched records hostage in a partial batch. The
// same holds one stage earlier: the scan goroutine hands its block over
// when it is full or when the scanner has nothing more buffered, so a
// block never waits across a read that may block and a slow feed sees
// blocks of one record.
func (s *Server) ingestScanner(ctx context.Context, sc *trace.Scanner, admit func(trace.Record) bool) error {
	b := s.newBatcher()
	var prevStats trace.SkipStats
	flushAll := func() {
		b.flushAll(ctx)
		s.syncScanStats(&prevStats, sc.Stats())
	}
	defer flushAll()

	// The scan goroutine owns sc until it closes blocks; scErr is buffered
	// and written before the close, so the drain below always finds it.
	blocks := make(chan []trace.Record, blocksQueued)
	free := make(chan []trace.Record, blocksQueued+2)
	scErr := make(chan error, 1)
	go func() {
		defer close(blocks)
		take := func() []trace.Record {
			select {
			case blk := <-free:
				return blk
			default:
				return make([]trace.Record, 0, blockRecords)
			}
		}
		blk := take()
		// send hands a non-empty blk over; false means ctx ended first.
		send := func() bool {
			if len(blk) == 0 {
				return true
			}
			select {
			case blocks <- blk:
				blk = take()
				return true
			case <-ctx.Done():
				return false
			}
		}
		for {
			if !sc.ScanBuffered() {
				if !send() {
					scErr <- ctx.Err()
					return
				}
				if !sc.Scan() {
					break
				}
			}
			blk = append(blk, sc.Record())
			if len(blk) == cap(blk) && !send() {
				scErr <- ctx.Err()
				return
			}
		}
		scErr <- sc.Err()
	}()

	ticker := time.NewTicker(s.cfg.FlushEvery)
	defer ticker.Stop()
	for {
		select {
		case blk, ok := <-blocks:
			if !ok {
				return <-scErr
			}
			matched, unmatched := int64(0), int64(0)
			for i := range blk {
				rec := blk[i]
				if admit != nil && !admit(rec) {
					continue
				}
				m, ok := s.matcher.Match(rec)
				if !ok {
					unmatched++
					continue
				}
				matched++
				// In a cluster every node sees the whole feed but ingests
				// only the keys the ring assigns it.
				if own := s.hooks.KeyOwned; own != nil && !own(mapmatch.Key{Light: m.Light, Approach: m.Approach}) {
					s.met.ingestFiltered.Add(1)
					continue
				}
				b.add(ctx, m)
			}
			s.met.ingestRecords.Add(int64(len(blk)))
			s.met.ingestMatched.Add(matched)
			s.met.ingestUnmatched.Add(unmatched)
			free <- blk[:0]
		case <-ticker.C:
			flushAll()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// batcher accumulates matched records per shard and sends a shard's
// batch when it reaches BatchSize. Batch slices come from the shard's
// free list and go back to it once the engine has copied the records
// out (shard.ingest), so a steady feed stops allocating them. A batcher
// belongs to one goroutine.
type batcher struct {
	s       *Server
	batches [][]mapmatch.Matched
}

func (s *Server) newBatcher() *batcher {
	return &batcher{s: s, batches: make([][]mapmatch.Matched, len(s.shards))}
}

func (b *batcher) add(ctx context.Context, m mapmatch.Matched) {
	idx := shardIndex(mapmatch.Key{Light: m.Light, Approach: m.Approach}, len(b.batches))
	if b.batches[idx] == nil {
		b.batches[idx] = b.s.shards[idx].takeBatch(b.s.cfg.BatchSize)
	}
	b.batches[idx] = append(b.batches[idx], m)
	if len(b.batches[idx]) >= b.s.cfg.BatchSize {
		b.flush(ctx, idx)
	}
}

func (b *batcher) flush(ctx context.Context, idx int) {
	if len(b.batches[idx]) > 0 {
		b.s.sendBatch(ctx, idx, b.batches[idx])
		b.batches[idx] = nil
	}
}

func (b *batcher) flushAll(ctx context.Context) {
	for idx := range b.batches {
		b.flush(ctx, idx)
	}
}

// syncScanStats folds one scanner's skip accounting into the daemon
// totals as deltas, so multiple concurrent sources aggregate correctly.
func (s *Server) syncScanStats(prev *trace.SkipStats, cur trace.SkipStats) {
	if d := cur.Lines - prev.Lines; d > 0 {
		s.met.scanLines.Add(int64(d))
	}
	for c, n := range cur.ByClass {
		if d := n - prev.ByClass[c]; d > 0 {
			s.met.skipped(c).Add(int64(d))
		}
	}
	*prev = cur
}
