package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
)

// RealtimeConfig tunes the streaming engine.
type RealtimeConfig struct {
	Pipeline PipelineConfig
	// Window is the trailing data window per estimate, seconds (the
	// paper suggests "the past 30 minutes").
	Window float64
	// Interval is the re-estimation period, seconds (paper: 5 minutes).
	// The fault policy's durations scale with it (see staleIntervals).
	Interval float64
	// UseHistory corrects gross one-off estimates against the per-slot
	// day-over-day median (Section VII; see History).
	UseHistory bool
	// Faults is the failure-isolation policy: per-key buffer caps and
	// quarantine-with-backoff for repeatedly failing approaches.
	Faults FaultPolicy
	// RoundOffset delays the engine's first estimation round by this many
	// stream seconds past the first Advance, after which rounds keep the
	// usual Interval cadence. The serving layer staggers its shards'
	// offsets so N engines don't all start a round on the same tick.
	// Must be in [0, Interval).
	RoundOffset float64
}

// DefaultRealtimeConfig matches the paper's cadence.
func DefaultRealtimeConfig() RealtimeConfig {
	return RealtimeConfig{
		Pipeline:   DefaultPipelineConfig(),
		Window:     1800,
		Interval:   300,
		UseHistory: true,
		Faults:     DefaultFaultPolicy(),
	}
}

// Validate checks the configuration.
func (c RealtimeConfig) Validate() error {
	if err := c.Pipeline.Validate(); err != nil {
		return err
	}
	if c.Window <= 0 || c.Interval <= 0 || c.Interval > c.Window {
		return fmt.Errorf("core: bad realtime cadence window=%v interval=%v", c.Window, c.Interval)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.RoundOffset < 0 || c.RoundOffset >= c.Interval {
		return fmt.Errorf("core: RoundOffset %v outside [0, Interval=%v)", c.RoundOffset, c.Interval)
	}
	return nil
}

// KeyedChange is a scheduling change attributed to one signal approach.
type KeyedChange struct {
	Key    mapmatch.Key
	Change SchedulingChange
}

// Engine is the real-time identification service: matched records are
// ingested as they arrive, and every Interval seconds of stream time the
// per-approach schedules are re-identified over the trailing Window —
// exactly the continuous operation of the paper's Fig. 4 system loop.
// All methods are safe for concurrent use.
//
// Estimation is incremental and non-blocking. Ingest marks the keys that
// receive records dirty, and a round re-identifies only the dirty (or
// newly unquarantined) keys, carrying every other key's published
// estimate forward — a tick where 5 % of the keys saw fresh data does
// ~5 % of the pipeline work. A round holds e.mu only for two short
// sections: slicing the dirty keys' window views, and publishing the
// finished results; the identification itself (DFT, folding, refinement)
// runs outside the lock, so Ingest, Snapshot and StateOf never wait on
// pipeline work. Rounds themselves are serialized by estMu.
//
// A buffered observation exists once: records are converted to compact
// observations (obs) in Ingest, kept only while a window can still reach
// them (see retainFromLocked), and a round reads them where they lie —
// its views are slices of the key buffers' pages, not copies. What makes
// that safe is one invariant, the aliasing invariant: an array a round's
// view aliases — a page, or a page list — is written only under estMu, or
// beyond the view's end. Ingest writes past the end of every view, into
// the last page or a page from the free list, which only a trim fills;
// normalizeLocked rewrites a buffer in place and the trim recycles its
// leading pages, so both run only under estMu — from a round's own
// snapshot section or from the trim after it. Overflow eviction runs
// under e.mu alone and writes nothing a view may alias: it moves an
// unsorted buffer to other pages before sorting it, and gives the buffer
// a new page list (evictOldestLocked). Plates obey the same discipline:
// an observation names its taxi by a plate id, an id is freed — its name
// slot cleared for reuse — only under estMu (trimLocked; eviction merely
// drops reference counts), and a round resolves ids through the names
// slice as it stood at the snapshot (see plateTable). The round's working
// memory (roundMem) belongs to the engine and is reused by every round.
type Engine struct {
	cfg RealtimeConfig
	// fullReestimate disables dirty-key tracking: every round re-identifies
	// every approach with in-window data, as the engine did before
	// incremental estimation. Only TestIncrementalMatchesFullRecompute
	// sets it, as its A/B oracle.
	fullReestimate bool

	// estMu serializes estimation rounds: Advance holds it for the whole
	// catch-up loop so rounds never interleave, while e.mu is only taken
	// for the snapshot and publish sections inside each round. It also
	// guards round, which only a running round touches.
	estMu         sync.Mutex
	roundObserver func(RoundStats)
	round         roundMem

	mu         sync.RWMutex
	approaches map[mapmatch.Key]*approach
	dirty      []*approach // every approach with dirty set, once
	published  int         // approaches with a published estimate
	plates     plateTable  // plate ids, and the observations buffered per id
	mergeBuf   []obs       // normalize scratch, guarded by mu
	freePages  []*obsPage  // pages trimLocked emptied, for Ingest to fill
	now        float64
	nextRun    float64
	version    uint64

	droppedOld, droppedOverflow int64 // dropped-record counters (see Health)
}

// minCoverage is the fraction of the window a round's data must span
// before its estimates feed the scheduling-change monitors: start-up
// windows with little data produce unstable estimates that would
// otherwise register as spurious changes.
const minCoverage = 0.8

// minQuality gates the scheduling-change monitors on the estimate's fold
// score (Result.Quality): approaches whose accepted cycle barely structures
// the data flip between harmonics and would otherwise report phantom
// changes. Estimates below the gate are still published in Snapshot.
const minQuality = 0.02

// approach is everything the engine keeps about one signal approach, made
// on its first record. History slots (a day's rounds each) are sized once,
// so they do not regrow every round, and the Monitor is a fixed-size value.
type approach struct {
	key    mapmatch.Key
	buf    keyBuffer
	dirty  bool // on Engine.dirty: unread records, or a failure to retry
	health approachHealth
	// est is served once published is set.
	est       Result
	published bool
	history   History // empty until UseHistory corrects a first estimate
	monitor   Monitor // empty until a first covered estimate feeds it
}

// reported: a has an estimate, or a failure only a success would clear.
func (a *approach) reported() bool {
	return a.published || a.health.consecutiveFailures > 0
}

// approachLocked returns k's record, making it on first sight.
func (e *Engine) approachLocked(k mapmatch.Key) *approach {
	a := e.approaches[k]
	if a == nil {
		a = &approach{key: k}
		e.approaches[k] = a
	}
	return a
}

// markDirtyLocked puts a on the dirty list unless it is there already.
func (e *Engine) markDirtyLocked(a *approach) {
	if !a.dirty {
		a.dirty = true
		e.dirty = append(e.dirty, a)
	}
}

// publishLocked is the one way an estimate is served: rounds and restores
// alike come through it. It serves res as a's estimate and clears a's
// failure ledger, unless a serves an estimate from a newer window already
// (the window fence: no publish rewinds the served answer). An equal window
// publishes again. It reports whether res was published.
func (e *Engine) publishLocked(a *approach, res Result) bool {
	if a.published && a.est.WindowEnd > res.WindowEnd {
		return false
	}
	if !a.published {
		a.published = true
		e.published++
	}
	a.est = res
	h := &a.health
	h.consecutiveFailures, h.backoff, h.quarantinedUntil = 0, 0, 0
	return true
}

// keyBuffer holds one approach's buffered records in pages under a
// sorted-prefix invariant: records [0, sorted) are sorted by T, the rest
// is the unsorted suffix appended since the last normalize. Ingest
// appends (extending the sorted prefix when arrivals are already in
// order); normalizeLocked sorts only the suffix and merges — replacing
// the whole-buffer stable sort each round used to pay. The buffer never
// regrows or compacts its records: a full last page is followed by
// another, and the trim hands whole leading pages to the engine's free
// list and moves only the page pointers down. A running round may hold a
// view slice(lo, hi) of the buffer, so whoever writes below n obeys the
// aliasing invariant (see Engine).
type keyBuffer struct {
	obsView
	sorted int
}

// NewEngine returns an idle engine.
func NewEngine(cfg RealtimeConfig) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:        cfg,
		approaches: map[mapmatch.Key]*approach{},
		plates:     newPlateTable(),
	}, nil
}

// retainFromLocked is the one retention cutoff: the start of the next
// pending round's window. No future window reaches further back, so a
// record older than this can never be read again — Ingest refuses it and
// trimLocked drops it. Before the first Advance has scheduled a round
// nothing is too old.
func (e *Engine) retainFromLocked() float64 {
	if e.nextRun == 0 {
		return math.Inf(-1)
	}
	return e.nextRun - e.cfg.Window
}

// Ingest adds matched records to the stream buffers and marks their keys
// dirty, so the next round re-identifies exactly the approaches that saw
// fresh data. Records may arrive in any order; each buffer keeps a
// sorted-prefix watermark so in-order arrivals (the common case) cost
// nothing to keep sorted and out-of-order arrivals are merged lazily.
// Two bounds keep memory finite however hostile the feed: a record no
// future window can reach (see retainFromLocked) is rejected instead of
// buffered, and each approach's buffer is capped at
// Faults.MaxBufferPerKey, evicting the oldest quarter on overflow. Both
// drop paths are counted in Health.
// A plate name is kept, not copied: it must own its bytes, as a
// trace.Scanner's interned plates do, so a plate is copied once, there.
func (e *Engine) Ingest(ms []mapmatch.Matched) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cutoff := e.retainFromLocked()
	for i := range ms {
		m := &ms[i]
		if m.T < cutoff {
			e.droppedOld++
			continue
		}
		a := e.approachLocked(mapmatch.Key{Light: m.Light, Approach: m.Approach})
		e.bufferLocked(&a.buf, e.plates.observe(m))
		e.markDirtyLocked(a)
	}
}

// bufferLocked adds one observation to kb, evicting first when kb is at
// Faults.MaxBufferPerKey, and counts its plate reference.
func (e *Engine) bufferLocked(kb *keyBuffer, o obs) {
	if maxPerKey := e.cfg.Faults.MaxBufferPerKey; maxPerKey > 0 && kb.n >= maxPerKey {
		e.evictOldestLocked(kb, maxPerKey)
	}
	if kb.sorted == kb.n && (kb.n == 0 || o.t >= kb.at(kb.n-1).t) {
		kb.sorted++
	}
	e.appendLocked(kb, o)
	e.plates.hold(o.id())
}

// appendLocked writes o past the end of kb: into its last page, or into a
// page the last trim emptied, or into a new one.
func (e *Engine) appendLocked(kb *keyBuffer, o obs) {
	i := kb.off + kb.n
	if i == len(kb.pages)<<pageShift {
		var p *obsPage
		if n := len(e.freePages); n > 0 {
			p = e.freePages[n-1]
			e.freePages[n-1] = nil
			e.freePages = e.freePages[:n-1]
		} else {
			p = new(obsPage)
		}
		if kb.pages == nil { // room for a typical window: the list is not regrown page by page
			kb.pages = make([]*obsPage, 0, 4)
		}
		kb.pages = append(kb.pages, p)
	}
	kb.pages[i>>pageShift][i&pageMask] = o
	kb.n++
}

// normalizeLocked restores kb's fully-sorted invariant. Only the
// appended suffix is sorted, in the engine's scratch; it is then merged
// with the sorted prefix, preferring prefix records on equal timestamps.
// Prefix records all arrived before suffix records and both halves
// preserve arrival order among equals, so the result is exactly what a
// whole-buffer stable sort would produce — at the cost of sorting only
// the new arrivals. The prefix records that precede the suffix's first
// stay where they are; only those after it join the scratch and move.
func (e *Engine) normalizeLocked(kb *keyBuffer) {
	if kb.sorted >= kb.n {
		kb.sorted = kb.n
		return
	}
	buf := reuse(e.mergeBuf, kb.n-kb.sorted)
	for i := kb.sorted; i < kb.n; i++ {
		buf = append(buf, *kb.at(i))
	}
	slices.SortStableFunc(buf, func(a, b obs) int { return cmp.Compare(a.t, b.t) })
	suffix := len(buf)
	from := sort.Search(kb.sorted, func(i int) bool { return buf[0].t < kb.at(i).t })
	for i := from; i < kb.sorted; i++ {
		buf = append(buf, *kb.at(i))
	}
	j, i := 0, suffix // the suffix is buf[:suffix], the moving prefix buf[suffix:]
	for w := from; w < kb.n; w++ {
		if i == len(buf) || (j < suffix && buf[j].t < buf[i].t) {
			*kb.at(w) = buf[j]
			j++
		} else {
			*kb.at(w) = buf[i]
			i++
		}
	}
	e.mergeBuf = buf
	kb.sorted = kb.n
}

// evictOldestLocked drops the oldest quarter of one key's buffer so that
// eviction cost is amortised across many overflowing records rather than
// paid per record. It is the one writer of a buffer's records below n
// that runs outside estMu (Ingest holds only e.mu), so a round may be
// reading a view of the buffer right now. It therefore writes nothing the
// view aliases: an unsorted buffer moves to other pages before it is
// sorted, and the pages that are left hold no dropped record. The buffer
// takes a new page list, so the old one, and the dropped pages, are left
// to the round and then to the collector.
func (e *Engine) evictOldestLocked(kb *keyBuffer, maxPerKey int) {
	if kb.sorted < kb.n {
		moved := keyBuffer{sorted: kb.sorted}
		for i := 0; i < kb.n; i++ {
			e.appendLocked(&moved, *kb.at(i))
		}
		*kb = moved
		e.normalizeLocked(kb)
	}
	drop := min(max(kb.n-maxPerKey*3/4, 1), kb.n)
	e.droppedOverflow += int64(drop)
	e.dropOldestLocked(kb, drop)
	kb.pages = append([]*obsPage(nil), kb.pages...)
}

// dropOldestLocked removes the n oldest observations of a normalized
// buffer and drops their plate references. It only reslices: the pages
// left with no observation are cut from the front of the page list and
// returned, and nothing is written, so what becomes of them and of the
// list's array is the caller's to decide. A buffer left empty keeps no
// page.
func (e *Engine) dropOldestLocked(kb *keyBuffer, n int) (emptied []*obsPage) {
	for i := 0; i < n; i++ {
		e.plates.release(kb.at(i).id())
	}
	i := kb.off + n
	if n == kb.n {
		i = len(kb.pages) << pageShift
	}
	emptied = kb.pages[:i>>pageShift]
	kb.pages, kb.off = kb.pages[i>>pageShift:], i&pageMask
	kb.n -= n
	kb.sorted = kb.n
	return emptied
}

// Advance moves the stream clock to t (seconds), running identification
// for every due interval, and returns any newly confirmed scheduling
// changes. Advancing backwards is a no-op. Rounds are serialized by
// estMu; e.mu is held only for the short snapshot and publish sections
// of each round, so concurrent Ingest/Snapshot/StateOf calls proceed
// while the pipeline crunches.
func (e *Engine) Advance(t float64) ([]KeyedChange, error) {
	e.estMu.Lock()
	defer e.estMu.Unlock()
	e.mu.Lock()
	if t <= e.now {
		e.mu.Unlock()
		return nil, nil
	}
	e.now = t
	if e.nextRun == 0 {
		// First estimation happens at the first Advance past data, plus the
		// configured phase offset (shard pacing). Rounds between t and the
		// offset are not skipped — runAt > t just waits for a later Advance.
		e.nextRun = t + e.cfg.RoundOffset
	}
	runAt := e.nextRun
	e.mu.Unlock()
	var out []KeyedChange
	ran := false
	for runAt <= t {
		ch, stats := e.estimateRound(runAt)
		out = append(out, ch...)
		runAt += e.cfg.Interval
		e.mu.Lock()
		e.nextRun = runAt
		e.version++
		stats.Version = e.version
		e.mu.Unlock()
		// The observer fires after the version bump so a consumer reading
		// Version (or building an ETag from it) sees a value that already
		// covers this round's publishes — the push read path depends on it.
		if obs := e.roundObserver; obs != nil {
			obs(stats)
		}
		ran = true
	}
	if ran {
		// The retention cutoff follows nextRun, which only a round moves.
		e.mu.Lock()
		e.trimLocked()
		e.mu.Unlock()
	}
	return out, nil
}

// RoundStats describes one completed estimation round; see
// SetRoundObserver.
type RoundStats struct {
	// At is the stream time the round estimated at (its window end).
	At float64
	// Dirty is the number of keys marked dirty when the round started;
	// Recomputed is how many were actually re-identified (dirty keys with
	// in-window data, quarantined ones excluded); Carried is how many
	// published estimates rode along unchanged.
	Dirty, Recomputed, Carried int
	// Duration is the wall time of the whole round; LockHold is the time
	// e.mu was held across the snapshot and publish sections — the only
	// part during which readers and ingest wait.
	Duration, LockHold time.Duration
	// Snapshot, StopIndex, Identify and Publish split Duration into the
	// round's four stages and sum to it exactly: slicing the window views
	// under e.mu, building the stop index over them, identifying the
	// recomputed keys, and folding the results into the served state
	// under e.mu again.
	Snapshot, StopIndex, Identify, Publish time.Duration
	// Published lists the keys whose estimate was updated by this round —
	// the delta a push read path fans out to subscribers. Keys whose
	// identification failed or whose result lost the window fence are
	// not in it.
	Published []mapmatch.Key
	// Version is the engine version after this round's bump: a snapshot
	// taken at Version already reflects every key in Published.
	Version uint64
	// Workers is the effective identification parallelism of this round:
	// the resolved worker count after Pipeline.Workers defaulting and
	// clamping to the number of recomputed keys.
	Workers int
}

// SetRoundObserver registers fn to run after every estimation round,
// outside the engine locks. Passing nil unregisters. The serving layer
// uses it to export round-duration and lock-hold metrics.
func (e *Engine) SetRoundObserver(fn func(RoundStats)) {
	e.estMu.Lock()
	defer e.estMu.Unlock()
	e.roundObserver = fn
}

// viewHook, when non-nil, is shown every round's views twice: as
// snapshotted, and again once identification is done with them. It exists
// solely so tests can prove nothing writes a range a round is reading.
var viewHook func(rm *roundMem, identified bool)

// estimateRound runs one estimation round at stream time at: snapshot
// the dirty keys' window views under e.mu, index stops and identify
// outside any lock, publish under e.mu again. Quarantined approaches are
// skipped and stay dirty — their buffers keep filling, so a recovered
// approach re-estimates immediately on release, but no pipeline work is
// spent on a key that keeps failing.
func (e *Engine) estimateRound(at float64) ([]KeyedChange, RoundStats) {
	t0 := at - e.cfg.Window
	rm := &e.round
	stats := RoundStats{At: at}

	start := time.Now()
	e.mu.Lock()
	stats.Dirty = len(e.dirty)
	earliest := e.snapshotLocked(rm, t0, at)
	e.mu.Unlock()
	snapped := time.Now()
	if viewHook != nil {
		viewHook(rm, false)
	}

	// Monitors only see estimates from sufficiently covered windows.
	covered := !math.IsInf(earliest, 1) && at-earliest >= minCoverage*e.cfg.Window

	// The expensive part, outside every engine lock. Stop extraction is
	// global (see StopIndex) and shared, read-only, by all workers.
	pcfg := e.cfg.Pipeline
	rm.index.build(rm.view, rm.names, pcfg.Stops)
	indexed := time.Now()
	sortKeys(rm.recompute)
	stats.Workers = effectiveWorkers(pcfg.Workers, len(rm.recompute))
	stats.Recomputed = len(rm.recompute)
	results := rm.identify(rm.recompute, t0, at, pcfg)
	identified := time.Now()
	if viewHook != nil {
		viewHook(rm, true)
	}
	// The views are dead from here. A finished round keeps no reference
	// into a key buffer, so a page list a buffer drops is garbage at once;
	// the keys stay, and tell the next snapshot how large this round was.
	for k := range rm.view {
		rm.view[k] = obsView{}
	}
	rm.names = nil

	out := e.publishRound(at, rm.recompute, results, covered, &stats)
	done := time.Now()

	stats.Snapshot = snapped.Sub(start)
	stats.StopIndex = indexed.Sub(snapped)
	stats.Identify = identified.Sub(indexed)
	stats.Publish = done.Sub(identified)
	stats.Duration = done.Sub(start)
	stats.LockHold = stats.Snapshot + stats.Publish
	return out, stats
}

// snapshotLocked hands rm the in-window views of the keys to recompute,
// plus their perpendicular context and the plate names as they stand,
// and lists the keys to recompute in rm.recompute. A view is
// kb.slice(lo, hi) of a normalized buffer — the records themselves, not a
// copy; the caller holds estMu, and until the round ends the aliasing
// invariant (see Engine) keeps every writer off that range. It returns
// the earliest record time among the recomputed keys (+Inf when there is
// none).
func (e *Engine) snapshotLocked(rm *roundMem, t0, at float64) (earliest float64) {
	rm.names = e.plates.names
	if e.fullReestimate { // every approach is due
		for _, a := range e.approaches {
			e.markDirtyLocked(a)
		}
	}
	// The view map doubles as the set of keys already spanned. Its
	// buckets are reused unless a burst left it far larger than a round
	// needs.
	if rm.view == nil || oversized(len(rm.view), len(e.dirty)) {
		rm.view = make(map[mapmatch.Key]obsView, 2*len(e.dirty))
	} else {
		clear(rm.view)
	}
	rm.recompute = rm.recompute[:0]
	window := func(v obsView) (lo, hi int) {
		lo = sort.Search(v.n, func(i int) bool { return v.at(i).t >= t0 })
		hi = sort.Search(v.n, func(i int) bool { return v.at(i).t > at })
		return lo, hi
	}
	earliest = math.Inf(1)
	for _, a := range e.dirty {
		kb := &a.buf
		if kb.n == 0 {
			a.dirty = false
			continue
		}
		if a.health.quarantinedUntil > at {
			continue // stays dirty: recompute on release
		}
		e.normalizeLocked(kb)
		lo, hi := window(kb.obsView)
		if hi == kb.n {
			// No records beyond this window: the key is clean until new
			// data arrives. Keys with buffered future records stay dirty
			// for the round that will see them.
			a.dirty = false
		}
		if hi > lo {
			rm.view[a.key] = kb.slice(lo, hi)
			rm.recompute = append(rm.recompute, a.key)
			earliest = min(earliest, kb.at(lo).t)
		}
	}
	e.dirty = slices.DeleteFunc(e.dirty, func(a *approach) bool { return !a.dirty })
	// Perpendicular context: enhancement mirrors the perpendicular
	// approach's samples and the stop index reads its dwell runs, so the
	// view must carry those records even though the perpendicular key
	// itself is not re-identified.
	for _, k := range rm.recompute {
		pk := k.PerpendicularKey()
		if _, spanned := rm.view[pk]; spanned {
			continue
		}
		a := e.approaches[pk]
		if a == nil || a.buf.n == 0 {
			continue
		}
		e.normalizeLocked(&a.buf)
		if lo, hi := window(a.buf.obsView); hi > lo {
			rm.view[pk] = a.buf.slice(lo, hi)
		}
	}
	return earliest
}

// publishRound applies one round's results under e.mu: failure ledger,
// estimate publication, history correction and monitor feeding, and
// fills stats.Published and stats.Carried. A result the window fence
// refuses (a restore published a newer window meanwhile) is dropped
// before History or the Monitor sees it.
func (e *Engine) publishRound(at float64, keys []mapmatch.Key, results []Result, covered bool, stats *RoundStats) []KeyedChange {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []KeyedChange
	// Carried: every published estimate this round does not recompute.
	stats.Carried = e.published
	for i, k := range keys {
		res := results[i]
		a := e.approaches[k]
		if a.published {
			stats.Carried--
		}
		if res.Err != nil {
			// Contained failure: the ledger decides whether this key is
			// quarantined; every other approach proceeds untouched and
			// the last good estimate stays published. The key is re-marked
			// dirty so it retries next round until quarantine kicks in.
			e.recordFailureLocked(a, at, res.Err)
			e.markDirtyLocked(a)
			continue
		}
		if !e.publishLocked(a, res) {
			continue
		}
		stats.Published = append(stats.Published, k)
		est := &a.est // corrected in place, before e.mu lets a reader see it
		if e.cfg.UseHistory {
			if a.history.slots == nil {
				a.history = newHistory(int(math.Ceil(historySlotSeconds / e.cfg.Interval)))
			}
			if v, corrected := a.history.AddAndCorrect(at, est.Cycle); corrected {
				est.Cycle = v
				est.Green = v - est.Red
			}
		}
		if !covered || est.Quality < minQuality {
			continue
		}
		for _, c := range a.monitor.Feed(CyclePoint{T: at, Cycle: est.Cycle}) {
			out = append(out, KeyedChange{Key: k, Change: c})
		}
	}
	return out
}

// trimLocked drops buffered records that can no longer enter any window,
// and is the one place plate ids and pages are freed. It rewrites buffers
// and their page lists in place, hands pages to Ingest and clears names a
// round would read, so the caller holds estMu as well.
func (e *Engine) trimLocked() {
	cutoff := e.retainFromLocked()
	inUse, longest := 0, 0
	for _, a := range e.approaches {
		kb := &a.buf
		e.normalizeLocked(kb)
		if lo := sort.Search(kb.n, func(i int) bool { return kb.at(i).t >= cutoff }); lo > 0 {
			list := kb.pages
			e.freePages = append(e.freePages, e.dropOldestLocked(kb, lo)...)
			// The kept page pointers move down, to the front of the list.
			kb.pages = list[:copy(list, kb.pages)]
			clear(list[len(kb.pages):])
		}
		inUse += len(kb.pages)
		longest = max(longest, kb.n)
	}
	// The free list keeps at most half as many pages as are in use, and
	// the collector takes the rest: a burst's pages do not stay, and an
	// engine with nothing buffered holds none.
	if keep := inUse / 2; len(e.freePages) > keep {
		clear(e.freePages[keep:])
		e.freePages = fit(e.freePages[:keep])
	}
	// Every buffer is sorted now; a merge scratch a burst left is let go
	// even if no record arrives out of order again.
	e.mergeBuf = trim(e.mergeBuf, longest)
	e.plates.compact()
}

// Estimate is one published approach estimate together with its serving
// condition: how old it is and whether the approach is currently fresh,
// stale or quarantined.
type Estimate struct {
	Result
	// Age is seconds between the engine clock and the estimate's window
	// end — how outdated the answer is.
	Age float64
	// Health is the approach's current serving condition.
	Health HealthState
}

// Snapshot returns a copy of the latest per-approach estimates, each
// annotated with its age and health state. Quarantined and stale
// approaches keep their last good estimate published — degraded answers
// stay available, flagged.
func (e *Engine) Snapshot() map[mapmatch.Key]Estimate {
	snap, _ := e.SnapshotVersioned()
	return snap
}

// SnapshotVersioned is Snapshot plus the version the copy reflects, read
// under one lock so the pair is consistent. Serving layers cache the
// (expensive) copy and use Version to revalidate it cheaply.
func (e *Engine) SnapshotVersioned() (map[mapmatch.Key]Estimate, uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[mapmatch.Key]Estimate, e.published)
	for k, a := range e.approaches {
		if a.published {
			out[k] = e.estimateLocked(a)
		}
	}
	return out, e.version
}

// estimateLocked annotates a's published estimate with age and health.
func (e *Engine) estimateLocked(a *approach) Estimate {
	age := e.now - a.est.WindowEnd
	return Estimate{Result: a.est, Age: age, Health: e.healthStateLocked(a, age)}
}

// Version returns a counter that increments whenever the published
// estimates may have changed: after every estimation pass and every
// RestoreState that publishes. A consumer holding a snapshot taken at
// version v knows the engine's content is unchanged while Version still
// returns v — the basis for cheap ETag-style revalidation without copying
// the map.
func (e *Engine) Version() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// EstimateFor returns the published estimate of one approach annotated
// with age and health, without copying the whole snapshot — the accessor
// behind per-key serving endpoints. ok is false when the approach has no
// published estimate.
func (e *Engine) EstimateFor(key mapmatch.Key) (Estimate, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	a := e.approaches[key]
	if a == nil || !a.published {
		return Estimate{}, false
	}
	return e.estimateLocked(a), true
}

// ApproachHealthFor returns the health snapshot of one approach without
// assembling the engine-wide report. ok is false when the engine has
// never seen the key (no estimate and no failure ledger).
func (e *Engine) ApproachHealthFor(key mapmatch.Key) (ApproachHealth, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	a := e.approaches[key]
	if a == nil || !a.reported() {
		return ApproachHealth{}, false
	}
	return e.approachHealthLocked(a), true
}

// ApproachState is the durable per-approach engine state: the latest
// published estimate plus the scheduling-change monitor's state. It is
// what a serving daemon checkpoints so a restart resumes where the old
// process stopped.
type ApproachState struct {
	Result  Result
	Monitor MonitorState
}

// EngineState is the exported state of one engine (or the merged state
// of many shards): the stream clock plus every approach's durable state.
type EngineState struct {
	// Now is the stream clock at export time, seconds.
	Now float64
	// Approaches holds the durable state of every published approach.
	Approaches map[mapmatch.Key]ApproachState
}

// ExportState snapshots the engine's durable state: the stream clock,
// every published estimate and every monitor's state, copied so the
// caller may serialize it without holding the engine lock.
func (e *Engine) ExportState() EngineState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := EngineState{Now: e.now, Approaches: make(map[mapmatch.Key]ApproachState, e.published)}
	for k, a := range e.approaches {
		if a.published {
			st.Approaches[k] = ApproachState{Result: a.est, Monitor: a.monitor.State()}
		}
	}
	return st
}

// RestoreState publishes externally supplied estimates — checkpointed by
// a previous run of a serving daemon, or replicated from a peer — so an
// engine answers live queries before its first window fills, exactly as
// if the pipeline had produced each result at its WindowEnd. Each
// estimate passes the window fence (see publishLocked) and counts as a
// success in the failure ledger; entries with a non-nil Err or a
// non-positive Cycle are skipped. Monitor states are restored exactly, so
// a restored monitor neither re-emits a confirmed change nor loses one in
// progress (an empty state leaves the approach's monitor as it is), and
// the stream clock moves forward to st.Now so estimate ages stay
// truthful; it never moves backwards, so Now: 0 restores estimates alone.
// It returns the keys it published.
func (e *Engine) RestoreState(st EngineState) []mapmatch.Key {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st.Now > e.now {
		e.now = st.Now
	}
	var published []mapmatch.Key
	for k, as := range st.Approaches {
		res := as.Result
		if res.Err != nil || res.Cycle <= 0 {
			continue
		}
		res.Key = k
		a := e.approachLocked(k)
		if !e.publishLocked(a, res) {
			continue
		}
		// A round of a restored engine feeds the monitor at its own time,
		// which lies past the clock restored here, and Feed panics on a
		// point older than the last. So a state no monitor could have, or
		// one holding a point after the exported clock (a corrupt or forged
		// checkpoint), is dropped whole and the monitor starts empty.
		if as.Monitor != (MonitorState{}) {
			a.monitor = Monitor{}
			if mon, err := RestoreMonitor(as.Monitor); err == nil && as.Monitor.Last[1].T <= st.Now {
				a.monitor = *mon
			}
		}
		published = append(published, k)
	}
	if len(published) > 0 {
		e.version++
	}
	return published
}

// StateOf answers the headline real-time question — is this approach red
// or green at time t? — from the latest estimate. ok is false when the
// approach has no estimate yet.
func (e *Engine) StateOf(key mapmatch.Key, t float64) (lights.State, bool) {
	state, _, ok := e.StateOfHealth(key, t)
	return state, ok
}

// StateOfHealth is StateOf plus the approach's health snapshot, so a
// consumer can weigh a red/green answer by how degraded its source is
// (EstimateAge, Stale/Quarantined state, failure counts).
func (e *Engine) StateOfHealth(key mapmatch.Key, t float64) (lights.State, ApproachHealth, bool) {
	e.mu.RLock()
	var res Result // no schedule: PhaseAt says red and not ok
	var h ApproachHealth
	if a := e.approaches[key]; a != nil && a.published {
		res, h = a.est, e.approachHealthLocked(a)
	}
	e.mu.RUnlock()
	state, _, ok := res.PhaseAt(t)
	return state, h, ok
}

// PhaseAt evaluates the identified schedule at time t (seconds on the
// stream axis): the light state plus how many seconds remain until the
// next state change — the countdown a driver-facing endpoint serves. The
// estimate anchors the red phase at WindowStart+GreenToRedPhase, so the
// answer stays valid past WindowEnd for as long as the schedule holds.
// ok is false when the result carries no usable schedule (failed
// identification or non-positive cycle).
func (r Result) PhaseAt(t float64) (state lights.State, untilChange float64, ok bool) {
	if r.Err != nil || r.Cycle <= 0 {
		return lights.Red, 0, false
	}
	phase := foldPhase(t, r.WindowStart+r.GreenToRedPhase, r.Cycle)
	if phase < r.Red {
		return lights.Red, r.Red - phase, true
	}
	return lights.Green, r.Cycle - phase, true
}

// Now returns the engine's stream clock.
func (e *Engine) Now() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.now
}

// Config returns the configuration the engine was built with, so
// operators can interpret Health output against the active FaultPolicy.
func (e *Engine) Config() RealtimeConfig {
	return e.cfg
}
