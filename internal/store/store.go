package store

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taxilight/internal/core"
	"taxilight/internal/mapmatch"
)

// Config tunes the durable estimate store.
type Config struct {
	// SegmentMaxBytes rotates the active WAL segment once it grows past
	// this size; smaller segments mean finer-grained retention.
	SegmentMaxBytes int64
	// SyncEvery fsyncs after this many appended records; 1 means
	// per-record durability, larger values batch the (expensive) fsync
	// across appends — the batched group-commit most WALs use.
	SyncEvery int
	// SyncInterval bounds how long an appended record may wait for its
	// batched fsync; 0 disables the background flusher (records then
	// only reach disk when SyncEvery trips, Checkpoint runs or the
	// store closes).
	SyncInterval time.Duration
	// RetentionAge drops sealed, checkpoint-covered segments whose
	// newest record is older than this many stream seconds behind the
	// store's newest record; 0 keeps segments forever.
	RetentionAge float64
	// RetentionBytes caps total segment bytes, dropping oldest
	// checkpoint-covered segments first; 0 means unlimited.
	RetentionBytes int64
	// CompactEvery is the background compaction cadence; 0 disables the
	// background loop (Compact may still be called manually).
	CompactEvery time.Duration
	// KeepCheckpoints is how many newest checkpoint files compaction
	// retains (minimum 1).
	KeepCheckpoints int
	// observeAppend and observeFsync, when non-nil, receive the latency
	// in seconds of every batch append and every fsync; SetObservers
	// installs them.
	observeAppend func(seconds float64)
	observeFsync  func(seconds float64)
}

// DefaultConfig is the serving daemon's posture: 8 MiB segments,
// fsync batched across 64 records or 200 ms (whichever first), two
// checkpoints kept, compaction every minute, retention unlimited.
func DefaultConfig() Config {
	return Config{
		SegmentMaxBytes: 8 << 20,
		SyncEvery:       64,
		SyncInterval:    200 * time.Millisecond,
		CompactEvery:    time.Minute,
		KeepCheckpoints: 2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SegmentMaxBytes <= int64(len(segMagic))+frameHeader+encodedRecordSize:
		return fmt.Errorf("store: SegmentMaxBytes %d cannot hold one record", c.SegmentMaxBytes)
	case c.SyncEvery <= 0:
		return fmt.Errorf("store: non-positive SyncEvery %d", c.SyncEvery)
	case c.SyncInterval < 0 || c.CompactEvery < 0:
		return fmt.Errorf("store: negative cadence (sync %v, compact %v)", c.SyncInterval, c.CompactEvery)
	case c.RetentionAge < 0:
		return fmt.Errorf("store: negative RetentionAge %v", c.RetentionAge)
	case c.RetentionBytes < 0:
		return fmt.Errorf("store: negative RetentionBytes %d", c.RetentionBytes)
	case c.KeepCheckpoints < 1:
		return fmt.Errorf("store: KeepCheckpoints %d < 1", c.KeepCheckpoints)
	}
	return nil
}

// Stats is a point-in-time accounting snapshot of the store.
type Stats struct {
	// Segments and SegmentBytes describe the current WAL.
	Segments     int
	SegmentBytes int64
	// LastSeq is the newest assigned sequence number (0 when empty).
	LastSeq uint64
	// AppendedRecords counts records appended by this process.
	AppendedRecords int64
	// Fsyncs counts WAL fsync calls by this process.
	Fsyncs int64
	// CheckpointsWritten counts checkpoints written by this process;
	// CheckpointFiles is how many are currently on disk.
	CheckpointsWritten int64
	CheckpointFiles    int
	// CompactionRuns / SegmentsCompacted / CheckpointsCompacted count
	// compaction activity by this process.
	CompactionRuns       int64
	SegmentsCompacted    int64
	CheckpointsCompacted int64
	// TornTail reports whether Open truncated a torn tail frame, and
	// RecoveredRecords how many tail records were replayed over the
	// recovered checkpoint.
	TornTail         bool
	RecoveredRecords int
}

// Store is the durable estimate store: one directory holding WAL
// segments plus checkpoint files. All methods are safe for concurrent
// use. Construct with Open, which performs crash recovery; Close flushes
// and stops the background loops.
type Store struct {
	dir string
	cfg Config

	mu        sync.Mutex
	segs      []*segment // catalog, oldest first; last is active
	active    *os.File
	bw        *bufio.Writer
	nextSeq   uint64
	pending   int // records appended since the last fsync
	ckptFiles int
	lastCkpt  uint64  // LastSeq of the newest checkpoint (0 = none)
	newestT   float64 // newest WindowEnd ever appended or recovered
	closed    bool

	// recovered holds the warm-start state assembled by Open.
	recovered      core.EngineState
	recoveredN     int
	tornTail       bool
	appendedTotal  atomic.Int64
	fsyncs         atomic.Int64
	ckptsWritten   atomic.Int64
	compactRuns    atomic.Int64
	segsCompacted  atomic.Int64
	ckptsCompacted atomic.Int64

	bg     sync.WaitGroup
	stopBG chan struct{}
}

// Open opens (creating if needed) the store in dir and performs crash
// recovery: it loads the newest checkpoint whose CRC verifies, replays
// only the WAL records appended after it, truncates any torn tail frame
// and resumes appending where the last intact record left off.
func Open(dir string, cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		cfg:       cfg,
		recovered: core.EngineState{Approaches: map[mapmatch.Key]core.ApproachState{}},
		stopBG:    make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if cfg.SyncInterval > 0 || cfg.CompactEvery > 0 {
		s.bg.Add(1)
		go s.background()
	}
	return s, nil
}

// recover assembles the warm-start state and prepares the active
// segment for appending.
func (s *Store) recover() error {
	// 1. Newest valid checkpoint, skipping corrupt ones.
	ckpts, err := listCheckpoints(s.dir)
	if err != nil {
		return err
	}
	s.ckptFiles = len(ckpts)
	for _, path := range ckpts {
		doc, err := readCheckpoint(path)
		if err != nil {
			continue // corrupt or half-written: fall back to an older one
		}
		s.recovered = stateFromDoc(doc)
		s.lastCkpt = doc.LastSeq
		break
	}
	// 2. Catalog segments; frame-walk those that may hold records newer
	// than the checkpoint, folding them into the recovered state. The
	// final segment is always walked so the torn tail is found and the
	// append offset known.
	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for i, sg := range segs {
		last := i == len(segs)-1
		// A sealed segment entirely covered by the checkpoint needs no
		// replay; its bounds stay lazily scanned.
		if !last && i+1 < len(segs) && segs[i+1].base <= s.lastCkpt+1 {
			sg.sealed = true
			continue
		}
		good, torn, err := walkSegment(sg.path, func(rec Record) error {
			sg.noteAppendRecovery(rec)
			if rec.Seq >= s.nextSeq {
				s.nextSeq = rec.Seq + 1
			}
			if rec.WindowEnd > s.newestT {
				s.newestT = rec.WindowEnd
			}
			if rec.Seq > s.lastCkpt {
				s.applyRecovered(rec)
				s.recoveredN++
			}
			return nil
		})
		if err != nil {
			return err
		}
		if torn {
			s.tornTail = true
			if last {
				// Truncate the torn tail so appends resume at a clean
				// frame boundary. Non-final segments keep their bytes
				// (the corruption is surfaced by Verify) but replay
				// stops at the damage.
				if err := os.Truncate(sg.path, good); err != nil {
					return err
				}
				sg.size = good
			}
		}
		sg.scanned = true
		if !last {
			sg.sealed = true
		}
	}
	s.segs = segs
	if s.nextSeq <= s.lastCkpt {
		s.nextSeq = s.lastCkpt + 1
	}
	if s.nextSeq == 0 {
		s.nextSeq = 1
	}
	if s.recovered.Now > s.newestT {
		s.newestT = s.recovered.Now
	}
	// 3. Open (or create) the active segment for appending.
	return s.openActiveLocked()
}

// noteAppendRecovery is noteAppend without the size bump (the size on
// disk is already counted by the catalog).
func (sg *segment) noteAppendRecovery(rec Record) {
	if sg.count == 0 {
		sg.minT, sg.maxT = rec.WindowEnd, rec.WindowEnd
	} else {
		if rec.WindowEnd < sg.minT {
			sg.minT = rec.WindowEnd
		}
		if rec.WindowEnd > sg.maxT {
			sg.maxT = rec.WindowEnd
		}
	}
	sg.lastSeq = rec.Seq
	sg.count++
}

// applyRecovered folds one replayed tail record into the warm-start
// state: the estimate wins if newer than the checkpoint's; the monitor
// series is extended so change detection resumes without a gap.
func (s *Store) applyRecovered(rec Record) {
	k := rec.Key()
	as := s.recovered.Approaches[k]
	if rec.WindowEnd >= as.Result.WindowEnd || as.Result.Cycle <= 0 {
		as.Result = rec.Result()
	}
	if n := len(as.Monitor); n == 0 || rec.WindowEnd > as.Monitor[n-1].T {
		as.Monitor = append(as.Monitor, core.CyclePoint{T: rec.WindowEnd, Cycle: rec.Cycle})
	}
	s.recovered.Approaches[k] = as
	if rec.WindowEnd > s.recovered.Now {
		s.recovered.Now = rec.WindowEnd
	}
}

// openActiveLocked ensures the catalog ends with a writable segment and
// positions the append cursor past its last intact frame.
func (s *Store) openActiveLocked() error {
	if n := len(s.segs); n > 0 && !s.segs[n-1].sealed {
		sg := s.segs[n-1]
		f, err := os.OpenFile(sg.path, os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if sg.size < int64(len(segMagic)) {
			// Crash before the header finished: rewrite from scratch.
			if err := f.Truncate(0); err != nil {
				f.Close()
				return err
			}
			if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
				f.Close()
				return err
			}
			sg.size = int64(len(segMagic))
			sg.count, sg.scanned = 0, true
		}
		if _, err := f.Seek(sg.size, 0); err != nil {
			f.Close()
			return err
		}
		s.active = f
		s.bw = bufio.NewWriterSize(f, 64<<10)
		return nil
	}
	return s.rotateLocked()
}

// rotateLocked seals the active segment and starts a new one.
func (s *Store) rotateLocked() error {
	if s.active != nil {
		if err := s.flushLocked(true); err != nil {
			return err
		}
		if err := s.active.Close(); err != nil {
			return err
		}
		s.segs[len(s.segs)-1].sealed = true
		s.active, s.bw = nil, nil
	}
	sg := &segment{
		path:    segmentPath(s.dir, s.nextSeq),
		base:    s.nextSeq,
		size:    int64(len(segMagic)),
		scanned: true,
	}
	f, err := os.OpenFile(sg.path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.segs = append(s.segs, sg)
	s.active = f
	s.bw = bufio.NewWriterSize(f, 64<<10)
	return nil
}

// Append assigns sequence numbers to recs and appends them to the WAL.
// Durability follows the configured group-commit policy: the call
// returns once the records are framed into the OS buffer, and fsync
// happens when SyncEvery records accumulate, when SyncInterval elapses,
// or at Sync/Checkpoint/Close — whichever comes first.
func (s *Store) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append to closed store")
	}
	var buf []byte
	for i := range recs {
		recs[i].Seq = s.nextSeq
		s.nextSeq++
		buf = recs[i].encode(buf[:0])
		n, err := appendFrame(s.bw, buf)
		if err != nil {
			return err
		}
		sg := s.segs[len(s.segs)-1]
		sg.noteAppend(recs[i], int64(n))
		if recs[i].WindowEnd > s.newestT {
			s.newestT = recs[i].WindowEnd
		}
		s.pending++
		if sg.size >= s.cfg.SegmentMaxBytes {
			if err := s.rotateLocked(); err != nil {
				return err
			}
		}
	}
	s.appendedTotal.Add(int64(len(recs)))
	if s.cfg.observeAppend != nil {
		s.cfg.observeAppend(time.Since(start).Seconds())
	}
	if s.pending >= s.cfg.SyncEvery {
		return s.flushLocked(true)
	}
	return nil
}

// Sync forces the batched fsync now.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.flushLocked(true)
}

// flushLocked drains the buffered writer and optionally fsyncs.
func (s *Store) flushLocked(sync bool) error {
	if s.bw == nil {
		return nil
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	if !sync || s.pending == 0 {
		return nil
	}
	start := time.Now()
	if err := s.active.Sync(); err != nil {
		return err
	}
	s.fsyncs.Add(1)
	if s.cfg.observeFsync != nil {
		s.cfg.observeFsync(time.Since(start).Seconds())
	}
	s.pending = 0
	return nil
}

// Checkpoint writes a full snapshot of st, fsyncing the WAL first so
// the checkpoint's LastSeq covers everything already appended.
func (s *Store) Checkpoint(st core.EngineState) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: checkpoint on closed store")
	}
	if err := s.flushLocked(true); err != nil {
		s.mu.Unlock()
		return err
	}
	lastSeq := s.nextSeq - 1
	s.mu.Unlock()

	// Serialize + write outside the lock: checkpoints can be large and
	// must not stall appends.
	doc := docFromState(st, lastSeq)
	if _, err := writeCheckpoint(s.dir, doc); err != nil {
		return err
	}
	s.mu.Lock()
	if lastSeq > s.lastCkpt {
		s.lastCkpt = lastSeq
	}
	ckpts, err := listCheckpoints(s.dir)
	if err == nil {
		s.ckptFiles = len(ckpts)
	}
	s.mu.Unlock()
	s.ckptsWritten.Add(1)
	return nil
}

// RecoveredState returns the warm-start state assembled by Open —
// newest valid checkpoint plus replayed WAL tail — and how many tail
// records were replayed. The map is owned by the caller.
func (s *Store) RecoveredState() (core.EngineState, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := core.EngineState{Now: s.recovered.Now, Approaches: make(map[mapmatch.Key]core.ApproachState, len(s.recovered.Approaches))}
	for k, v := range s.recovered.Approaches {
		v.Monitor = append([]core.CyclePoint(nil), v.Monitor...)
		out.Approaches[k] = v
	}
	return out, s.recoveredN
}

// History returns the retained estimate records of one approach with
// WindowEnd in [from, to], in append order. limit > 0 keeps only the
// newest limit records. Records dropped by compaction are gone — the
// query answers over the retention horizon, not all time.
func (s *Store) History(key mapmatch.Key, from, to float64, limit int) ([]Record, error) {
	if to < from {
		return nil, fmt.Errorf("store: history range [%v, %v] inverted", from, to)
	}
	segs, err := s.snapshotSegments(from, to)
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, sg := range segs {
		_, _, err := walkSegment(sg.path, func(rec Record) error {
			if rec.Key() == key && rec.WindowEnd >= from && rec.WindowEnd <= to {
				out = append(out, rec)
			}
			return nil
		})
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out, nil
}

// AsOf answers the time-travel query: the estimate that was current for
// key at stream time t, i.e. the newest retained record with
// WindowEnd <= t. ok is false when no retained record qualifies.
func (s *Store) AsOf(key mapmatch.Key, t float64) (Record, bool, error) {
	segs, err := s.snapshotSegments(0, t)
	if err != nil {
		return Record{}, false, err
	}
	// Newest-first: the first segment containing a qualifying record
	// for the key wins.
	for i := len(segs) - 1; i >= 0; i-- {
		var best Record
		found := false
		_, _, err := walkSegment(segs[i].path, func(rec Record) error {
			if rec.Key() == key && rec.WindowEnd <= t {
				if !found || rec.Seq > best.Seq {
					best, found = rec, true
				}
			}
			return nil
		})
		if err != nil && !os.IsNotExist(err) {
			return Record{}, false, err
		}
		if found {
			return best, true, nil
		}
	}
	return Record{}, false, nil
}

// snapshotSegments flushes pending writes (so reads see them) and
// returns the catalog entries possibly overlapping [from, to], oldest
// first. Lazily scans sealed segments' bounds on first use.
func (s *Store) snapshotSegments(from, to float64) ([]*segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		if err := s.flushLocked(false); err != nil {
			return nil, err
		}
	}
	var out []*segment
	for _, sg := range s.segs {
		if !sg.scanned {
			if err := sg.scanBounds(); err != nil {
				return nil, err
			}
		}
		if sg.overlaps(from, to) {
			out = append(out, sg)
		}
	}
	return out, nil
}

// Compact applies retention: sealed segments entirely covered by the
// newest checkpoint are deleted once they age past RetentionAge (stream
// seconds behind the newest record) or while total size exceeds
// RetentionBytes; surplus checkpoint files beyond KeepCheckpoints are
// deleted too. The newest state always survives: a segment with records
// newer than the newest checkpoint is never deleted.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactRuns.Add(1)

	var doomed []*segment
	keep := s.segs[:0]
	total := int64(0)
	for _, sg := range s.segs {
		total += sg.size
	}
	for i, sg := range s.segs {
		if !sg.sealed || i == len(s.segs)-1 {
			keep = append(keep, sg)
			continue
		}
		if !sg.scanned {
			if err := sg.scanBounds(); err != nil {
				keep = append(keep, sg)
				continue
			}
		}
		covered := sg.lastSeq <= s.lastCkpt || sg.count == 0
		tooOld := s.cfg.RetentionAge > 0 && sg.maxT < s.newestT-s.cfg.RetentionAge
		tooBig := s.cfg.RetentionBytes > 0 && total > s.cfg.RetentionBytes
		if covered && (tooOld || tooBig) {
			doomed = append(doomed, sg)
			total -= sg.size
			continue
		}
		keep = append(keep, sg)
	}
	s.segs = keep
	for _, sg := range doomed {
		if err := os.Remove(sg.path); err != nil && !os.IsNotExist(err) {
			return err
		}
		s.segsCompacted.Add(1)
	}

	// Checkpoint retention: keep the newest KeepCheckpoints files.
	ckpts, err := listCheckpoints(s.dir)
	if err != nil {
		return err
	}
	for i, path := range ckpts {
		if i < s.cfg.KeepCheckpoints {
			continue
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		s.ckptsCompacted.Add(1)
	}
	if n := len(ckpts) - s.cfg.KeepCheckpoints; n > 0 {
		s.ckptFiles = s.cfg.KeepCheckpoints
	} else {
		s.ckptFiles = len(ckpts)
	}
	if len(doomed) > 0 || len(ckpts) > s.cfg.KeepCheckpoints {
		return syncDir(s.dir)
	}
	return nil
}

// background is the maintenance goroutine: batched-fsync deadline and
// periodic compaction.
func (s *Store) background() {
	defer s.bg.Done()
	syncEvery := s.cfg.SyncInterval
	if syncEvery <= 0 {
		syncEvery = time.Hour // effectively off; select still needs a case
	}
	compactEvery := s.cfg.CompactEvery
	if compactEvery <= 0 {
		compactEvery = 365 * 24 * time.Hour
	}
	syncT := time.NewTicker(syncEvery)
	compactT := time.NewTicker(compactEvery)
	defer syncT.Stop()
	defer compactT.Stop()
	for {
		select {
		case <-s.stopBG:
			return
		case <-syncT.C:
			if s.cfg.SyncInterval > 0 {
				_ = s.Sync()
			}
		case <-compactT.C:
			if s.cfg.CompactEvery > 0 {
				_ = s.Compact()
			}
		}
	}
}

// Stats returns the current accounting snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Segments:             len(s.segs),
		LastSeq:              s.nextSeq - 1,
		AppendedRecords:      s.appendedTotal.Load(),
		Fsyncs:               s.fsyncs.Load(),
		CheckpointsWritten:   s.ckptsWritten.Load(),
		CheckpointFiles:      s.ckptFiles,
		CompactionRuns:       s.compactRuns.Load(),
		SegmentsCompacted:    s.segsCompacted.Load(),
		CheckpointsCompacted: s.ckptsCompacted.Load(),
		TornTail:             s.tornTail,
		RecoveredRecords:     s.recoveredN,
	}
	for _, sg := range s.segs {
		st.SegmentBytes += sg.size
	}
	return st
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// SetObservers installs (or replaces) the append/fsync latency hooks
// after Open — the serving daemon opens the store before its metrics
// registry exists, then attaches the histograms here.
func (s *Store) SetObservers(observeAppend, observeFsync func(seconds float64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.observeAppend = observeAppend
	s.cfg.observeFsync = observeFsync
}

// Close flushes, fsyncs, stops the background loops and releases the
// active segment. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.flushLocked(true)
	if s.active != nil {
		if cerr := s.active.Close(); err == nil {
			err = cerr
		}
		s.active, s.bw = nil, nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopBG)
	s.bg.Wait()
	return err
}
