package core

import (
	"sync"

	"taxilight/internal/dsp"
	"taxilight/internal/mapmatch"
)

// identifyScratch is the per-worker reusable state behind one approach
// identification: an FFT-plan cache keyed by grid length, the spline/grid
// buffers of a dsp.Resampler, and every intermediate slice the pipeline
// stages fill (windowed samples, fold bins, folded curves, red-histogram
// counts). A steady-state estimation tick re-identifies the same window
// shapes every round for every light; with the scratch threaded through
// identifyOne the hot loop allocates near zero.
//
// A scratch is NOT safe for concurrent use; workers take one each from
// scratchPool. All public entry points that use a scratch return either
// scalars or freshly copied slices, so pooled buffers never escape.
type identifyScratch struct {
	plans     map[int]*dsp.FFTPlan // keyed by grid length
	resampler dsp.Resampler

	primary  []dsp.Sample // non-dwell speed samples near the stop line
	perp     []dsp.Sample // perpendicular speed samples (enhancement)
	win      []dsp.Sample // windowed primary samples
	cycIn    []dsp.Sample // windowed+merged IdentifyCycle input
	enhanced []dsp.Sample // merged primary inside Enhance
	perpMrg  []dsp.Sample // merged perpendicular inside Enhance
	enhOut   []dsp.Sample // Enhance output
	folded   []dsp.Sample // Superpose output
	foldTmp  []dsp.Sample // folded samples in input order, before placement
	foldPos  []int        // counting-sort slot cursors of the fold

	peaks []specPeak   // candidate DFT bins
	cands []scoredCand // fold-scored candidate cycles

	foldSums, foldCounts []float64 // foldScore phase-bin accumulators
	foldBins             []int32   // per-sample phase bin memo

	curveSums   []float64 // FoldedSpeedCurve accumulators
	curveCounts []int
	curve       []float64 // folded speed curve
	avg         []float64 // circular moving-average output

	redCounts    []float64   // red histogram bins
	redDurations []float64   // corrected stop durations
	stops        []StopEvent // FilterStops output
}

// roundMem is the working memory of one estimation round: the window
// views, the stop index built over them, the per-key result slots and
// the snapshot bookkeeping. The views own no records — in an Engine each
// is a sub-slice of a key buffer, read in place under the engine's
// aliasing invariant — so a round's memory does not scale with the
// window. An Engine owns one roundMem and reuses it round after round —
// rounds are serialized by estMu, and nothing a round publishes (Result,
// RoundStats) holds a slice into it — so a steady-state round allocates
// little beyond what it publishes. The batch entry points fill a fresh
// one per call.
type roundMem struct {
	view    map[mapmatch.Key][]obs // per-approach in-window records, time-sorted
	names   []string               // names[id] of every plate id in the view
	index   StopIndex
	results []Result // results[i] belongs to the i-th identified key

	// Snapshot bookkeeping of Engine.snapshotLocked.
	todo, recompute []mapmatch.Key
}

// load fills a fresh roundMem from a partition, interning plates into a
// table of its own, which it returns.
func (rm *roundMem) load(part mapmatch.Partition) plateTable {
	total := 0
	for _, ms := range part {
		total += len(ms)
	}
	plates := newPlateTable()
	all := make([]obs, 0, total)
	rm.view = make(map[mapmatch.Key][]obs, len(part))
	for k, ms := range part {
		start := len(all)
		for i := range ms {
			all = append(all, plates.observe(&ms[i]))
		}
		rm.view[k] = all[start:len(all):len(all)]
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

var scratchPool = sync.Pool{
	New: func() any { return &identifyScratch{plans: map[int]*dsp.FFTPlan{}} },
}

func getScratch() *identifyScratch   { return scratchPool.Get().(*identifyScratch) }
func putScratch(sc *identifyScratch) { scratchPool.Put(sc) }

// plan returns the cached FFT plan for grid length n, building it on
// first use. The estimation tick sees one or two distinct lengths, so the
// map stays tiny and steady-state lookups allocate nothing. Plan
// instances are strictly per-scratch (per-worker) because their I/O
// buffers are mutable; the expensive twiddle/chirp tables behind them
// are immutable and shared across all workers by dsp's plan-core cache.
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
