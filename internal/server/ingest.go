package server

import (
	"context"
	"fmt"
	"io"
	"time"

	"taxilight/internal/ingest"
	"taxilight/internal/mapmatch"
	"taxilight/internal/trace"
)

// RunSource ingests a single source; it is RunSources with one spec.
// Kept for callers that predate multi-source ingest.
func (s *Server) RunSource(ctx context.Context, src string) error {
	return s.RunSources(ctx, src)
}

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
	icfg := s.cfg.Ingest
	icfg.Lenient = s.cfg.Lenient
	sup, err := ingest.NewSupervisor(parsed, icfg, s.consumeSource)
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

// ingestReader scans one raw feed leniently and ingests it without
// supervision or dedup — the direct path tests and Dispatch-style
// callers use.
func (s *Server) ingestReader(ctx context.Context, r io.Reader) error {
	return s.ingestScanner(ctx, trace.NewLenientScanner(r, s.cfg.Lenient), nil)
}

// ingestScanner is the dispatch loop: parse → admit → map-match → batch
// by shard → send. Scanning runs in its own goroutine feeding a channel
// so the loop can select a flush ticker: batches flush when full and at
// least every FlushEvery even when no new record arrives — a paused
// feed must not hold matched records hostage in a partial batch.
func (s *Server) ingestScanner(ctx context.Context, sc *trace.Scanner, admit func(trace.Record) bool) error {
	b := s.newBatcher()
	var prevStats trace.SkipStats
	flushAll := func() {
		b.flushAll(ctx)
		s.syncScanStats(&prevStats, sc.Stats())
	}
	defer flushAll()

	// The scan goroutine owns sc until it closes recs; scErr is buffered
	// and written before the close, so the drain below always finds it.
	recs := make(chan trace.Record, 128)
	scErr := make(chan error, 1)
	go func() {
		defer close(recs)
		for sc.Scan() {
			select {
			case recs <- sc.Record():
			case <-ctx.Done():
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
		case rec, ok := <-recs:
			if !ok {
				return <-scErr
			}
			s.met.ingestRecords.Add(1)
			if admit != nil && !admit(rec) {
				continue
			}
			if m, matched := s.matcher.Match(rec); matched {
				s.met.ingestMatched.Add(1)
				// In a cluster every node sees the whole feed but ingests
				// only the keys the ring assigns it.
				if own := s.hooks.KeyOwned; own != nil && !own(mapmatch.Key{Light: m.Light, Approach: m.Approach}) {
					s.met.ingestFiltered.Add(1)
					continue
				}
				b.add(ctx, m)
			} else {
				s.met.ingestUnmatched.Add(1)
			}
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
	deltas := make(map[string]int64)
	for c, n := range cur.ByClass {
		if d := n - prev.ByClass[c]; d > 0 {
			deltas[c] = int64(d)
		}
	}
	if len(deltas) > 0 {
		s.met.addSkips(deltas)
	}
	*prev = cur
}
