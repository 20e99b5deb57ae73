package core

import (
	"runtime"
	"sync"

	"taxilight/internal/dsp"
	"taxilight/internal/mapmatch"
)

// identifyScratch is the per-worker reusable state behind one approach
// identification: an FFT-plan cache keyed by transform length, the spline/grid
// buffers of a dsp.Resampler, and every intermediate slice the pipeline
// stages fill (windowed samples, fold bins, folded curves, red-likelihood
// run shapes). A steady-state estimation tick re-identifies the same window
// shapes every round for every light; with the scratch threaded through
// identifyOne the hot loop allocates near zero.
//
// A scratch is NOT safe for concurrent use; workers borrow one each from
// the process-wide set (getScratch). All public entry points that use a
// scratch return either scalars or freshly copied slices, so its buffers
// never escape.
type identifyScratch struct {
	plans     map[int]*dsp.FFTPlan // keyed by transform length, a power of two
	resampler dsp.Resampler

	primary  []dsp.Sample // non-dwell speed samples near the stop line
	perp     []dsp.Sample // perpendicular speed samples (enhancement)
	win      []dsp.Sample // windowed primary samples
	cycIn    []dsp.Sample // windowed+merged IdentifyCycle input
	enhanced []dsp.Sample // merged primary inside enhanceSc
	perpMrg  []dsp.Sample // merged perpendicular inside enhanceSc
	enhOut   []dsp.Sample // enhanceSc output
	folded   []dsp.Sample // Superpose output
	foldTmp  []dsp.Sample // folded samples in input order, before placement
	foldPos  []int        // counting-sort slot cursors of the fold

	peaks []specPeak   // candidate DFT bins
	cands []scoredCand // fold-scored candidate cycles

	foldSums, foldCounts []float64 // foldScore phase-bin accumulators
	foldBins             []int32   // per-sample phase bin memo

	curveSums   []float64 // foldedSpeedCurveSc accumulators
	curveCounts []int
	curve       []float64 // folded speed curve
	avg         []float64 // circular moving-average output

	shapes []stopShape // the red likelihood's usable-run shapes

	// need is the most elements any buffer or plan was sized for since the
	// scratch was borrowed; see needs and shrink.
	need int
}

// roundMem is the working memory of one estimation round: the window
// views, the stop index built over them, the per-key result slots and
// the snapshot bookkeeping. The views own no records — in an Engine each
// is a slice of a key buffer's pages, read in place under the engine's
// aliasing invariant — so a round's memory does not scale with the
// window. An Engine owns one roundMem and reuses it round after round —
// rounds are serialized by estMu, and nothing a round publishes (Result,
// RoundStats) holds a slice into it — so a steady-state round allocates
// little beyond what it publishes. The batch entry points fill a fresh
// one per call, its records laid out in pages of their own.
type roundMem struct {
	view    map[mapmatch.Key]obsView // per-approach in-window records, time-sorted
	names   []string                 // names[id] of every plate id in the view
	index   StopIndex
	results []Result // results[i] belongs to the i-th identified key

	// The keys Engine.snapshotLocked hands to identification.
	recompute []mapmatch.Key
}

// load fills a fresh roundMem from a partition, interning plates into a
// table of its own, which it returns.
func (rm *roundMem) load(part mapmatch.Partition) plateTable {
	npages := 0
	for _, ms := range part {
		npages += (len(ms) + pageMask) >> pageShift
	}
	plates := newPlateTable()
	all, list := make([]obsPage, npages), make([]*obsPage, npages)
	for i := range all {
		list[i] = &all[i]
	}
	rm.view = make(map[mapmatch.Key]obsView, len(part))
	for k, ms := range part {
		n := (len(ms) + pageMask) >> pageShift
		v := obsView{pages: list[:n:n], n: len(ms)}
		list = list[n:]
		for i := range ms {
			*v.at(i) = plates.observe(&ms[i])
		}
		rm.view[k] = v
	}
	rm.names = plates.names
	return plates
}

type specPeak struct {
	k   int
	mag float64
}

type scoredCand struct {
	cycle, score float64
}

// scratchSet is identification's working memory: at most one scratch per
// core, made on first demand and kept for the life of the process. A
// pool the collector empties cannot hold it: the runtime collects at least
// every two minutes and a round comes every five, so a pooled scratch was
// gone at every round and regrew its buffers and plans from nothing. Idle
// scratches queue first in, first out, so every scratch sees each shape
// of borrow in turn and shrink reaches all of them.
type scratchSet struct {
	mu   sync.Mutex
	made int
	idle chan *identifyScratch // its capacity is the set's size
}

func newScratchSet(size int) *scratchSet {
	return &scratchSet{idle: make(chan *identifyScratch, size)}
}

// scratches is the process-wide set, one scratch per core as GOMAXPROCS
// stands at start-up.
var scratches = newScratchSet(runtime.GOMAXPROCS(0))

// getScratch borrows a scratch: an idle one, else a new one while the set
// has room, else the first one handed back. The set is thus also the
// process-wide bound on concurrent identification — every engine's round
// workers and every one-shot call share its cores. The wait is
// deadlock-free because a waiter holds nothing a holder could wait for,
// so every holder hands back. Two rules make it so:
//   - no scratch is taken under e.mu: a waiter never holds an engine lock,
//     and Ingest and readers never queue behind identification;
//   - no scratch is taken while holding another: no *Sc function calls an
//     exported entry point (IdentifyCycle, IdentifyRed, …), which borrows
//     its own.
func getScratch() *identifyScratch {
	s := scratches
	select {
	case sc := <-s.idle:
		return sc
	default:
	}
	s.mu.Lock()
	if s.made < cap(s.idle) {
		s.made++
		s.mu.Unlock()
		return newScratch()
	}
	s.mu.Unlock()
	return <-s.idle
}

// putScratch hands a borrowed scratch back, shrunk to what the borrow
// needed. It never blocks: the set made no more scratches than it holds.
func putScratch(sc *identifyScratch) {
	sc.shrink()
	scratches.idle <- sc
}

func newScratch() *identifyScratch {
	return &identifyScratch{plans: map[int]*dsp.FFTPlan{}}
}

// needs records that the current borrow sizes a buffer, or a plan, for n
// elements. Every function that sizes a scratch buffer from its input
// calls it.
func (sc *identifyScratch) needs(n int) {
	if n > sc.need {
		sc.need = n
	}
}

// shrink drops every buffer and cached plan that is oversized against the
// most the borrow just ended needed — the rule reuse and fit apply to
// every other round buffer — so one burst (a MaxBufferPerKey key holds
// 20 000 records) does not size the set for good. A borrow that sized
// nothing says nothing about size and leaves the scratch as it is.
func (sc *identifyScratch) shrink() {
	n := sc.need
	sc.need = 0
	if n == 0 {
		return
	}
	sc.primary, sc.perp, sc.win = trim(sc.primary, n), trim(sc.perp, n), trim(sc.win, n)
	sc.cycIn, sc.enhanced, sc.perpMrg = trim(sc.cycIn, n), trim(sc.enhanced, n), trim(sc.perpMrg, n)
	sc.enhOut, sc.folded, sc.foldTmp = trim(sc.enhOut, n), trim(sc.folded, n), trim(sc.foldTmp, n)
	sc.foldPos, sc.peaks, sc.cands = trim(sc.foldPos, n), trim(sc.peaks, n), trim(sc.cands, n)
	sc.foldSums, sc.foldCounts, sc.foldBins = trim(sc.foldSums, n), trim(sc.foldCounts, n), trim(sc.foldBins, n)
	sc.curveSums, sc.curveCounts = trim(sc.curveSums, n), trim(sc.curveCounts, n)
	sc.curve, sc.avg, sc.shapes = trim(sc.curve, n), trim(sc.avg, n), trim(sc.shapes, n)
	if oversized(sc.resampler.Cap(), n) {
		sc.resampler = dsp.Resampler{}
	}
	for length := range sc.plans {
		if oversized(length, n) {
			delete(sc.plans, length)
		}
	}
}

// trim is buf, or nil when buf is oversized for n elements.
func trim[T any](buf []T, n int) []T {
	if oversized(cap(buf), n) {
		return nil
	}
	return buf
}

// plan returns the cached FFT plan for transform length n, building it on
// first use. The estimation tick sees one or two distinct lengths, so the
// map stays tiny and steady-state lookups allocate nothing. Plan
// instances are strictly per-scratch (per-worker) because their I/O
// buffers are mutable; the twiddle tables behind them are immutable and
// shared across all workers by dsp's plan-core cache.
func (sc *identifyScratch) plan(n int) (*dsp.FFTPlan, error) {
	if p := sc.plans[n]; p != nil {
		return p, nil
	}
	p, err := dsp.NewFFTPlan(n)
	if err != nil {
		return nil, err
	}
	sc.plans[n] = p
	return p, nil
}

// reuse returns buf emptied with room for n elements. The backing array
// is kept unless it is too small — the new one then has half as much
// again, so a filling window does not regrow it every round — or more
// than four times too large: a burst must not size long-lived working
// memory for good.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n || oversized(cap(buf), n) {
		return make([]T, 0, n+n/2)
	}
	return buf[:0]
}

func oversized(capacity, n int) bool { return capacity > 4*n+1024 }

// fit returns s, moved to an array half as large again as its length when
// the one it has is oversized: what reuse does for a buffer that is
// emptied, for one whose contents stay.
func fit[T any](s []T) []T {
	if oversized(cap(s), len(s)) {
		return append(make([]T, 0, len(s)+len(s)/2), s...)
	}
	return s
}

// grow returns buf resized to n elements, reusing the backing array
// when capacity allows. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
