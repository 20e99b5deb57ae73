package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"taxilight/internal/dsp"
	"taxilight/internal/mapmatch"
)

// StopExtractConfig tunes stop-event extraction from matched records.
type StopExtractConfig struct {
	// MaxDisplacement is the largest planar movement (metres) between
	// consecutive reports still counted as "the same position" — it must
	// absorb GPS noise (Fig. 2(c): 42.66 % of pairs are stationary).
	MaxDisplacement float64
	// MaxGap is the largest time gap (seconds) between consecutive
	// reports inside one stop run; beyond it the run is broken (the taxi
	// may have driven a full loop between reports).
	MaxGap float64
	// MaxStopDist is the farthest distance from the stop line (metres)
	// at which a stationary run still counts as queueing at the light.
	MaxStopDist float64
}

// DefaultStopExtractConfig covers the default trace noise model.
func DefaultStopExtractConfig() StopExtractConfig {
	return StopExtractConfig{MaxDisplacement: 25, MaxGap: 130, MaxStopDist: 160}
}

// Validate checks the configuration.
func (c StopExtractConfig) Validate() error {
	if c.MaxDisplacement <= 0 || c.MaxGap <= 0 || c.MaxStopDist <= 0 {
		return fmt.Errorf("core: non-positive stop-extraction parameter %+v", c)
	}
	return nil
}

// SpeedSamplesNear converts the matched records within maxDist metres of
// the stop line into (time, speed km/h) samples for the frequency-domain
// stages.
func SpeedSamplesNear(ms []mapmatch.Matched, maxDist float64) []dsp.Sample {
	out := make([]dsp.Sample, 0, len(ms))
	for _, m := range ms {
		if m.DistToStop <= maxDist {
			out = append(out, dsp.Sample{T: m.T, V: m.SpeedKMH})
		}
	}
	return out
}

// appendSpeedSamples appends the speed samples of the observations that
// lie within maxDist metres of the stop line and outside every dwell
// interval of the index.
func appendSpeedSamples(dst []dsp.Sample, ms obsView, idx *StopIndex, maxDist float64) []dsp.Sample {
	for j := range ms.pages {
		c := ms.chunk(j)
		for i := range c {
			if o := &c[i]; o.dist <= maxDist && !idx.isDwell(o.id(), o.t) {
				dst = append(dst, dsp.Sample{T: o.t, V: o.speed})
			}
		}
	}
	return dst
}

// PipelineConfig configures the end-to-end per-light identification.
type PipelineConfig struct {
	Cycle CycleConfig
	Red   RedConfig
	Stops StopExtractConfig
	// MaxSpeedDist keeps only records within this along-road distance
	// (metres) of the stop line in the frequency-domain speed series.
	// Records farther upstream are modulated by the *previous* light's
	// discharge platoons and pull the DFT onto the wrong fundamental.
	MaxSpeedDist float64
	// Workers bounds the per-light parallelism; 0 means GOMAXPROCS.
	Workers int
}

// DefaultPipelineConfig returns the configuration used by the
// experiments.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Cycle:        DefaultCycleConfig(),
		Red:          DefaultRedConfig(),
		Stops:        DefaultStopExtractConfig(),
		MaxSpeedDist: 120,
		Workers:      0,
	}
}

// Validate checks the configuration.
func (c PipelineConfig) Validate() error {
	if err := c.Cycle.Validate(); err != nil {
		return err
	}
	if err := c.Red.Validate(); err != nil {
		return err
	}
	if err := c.Stops.Validate(); err != nil {
		return err
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	if c.MaxSpeedDist <= 0 {
		return fmt.Errorf("core: non-positive MaxSpeedDist %v", c.MaxSpeedDist)
	}
	return nil
}

// Result is the identified schedule of one signal approach.
type Result struct {
	Key mapmatch.Key
	// Cycle, Red and Green are the identified durations in seconds.
	Cycle, Red, Green float64
	// GreenToRedPhase and RedToGreenPhase are signal-change times as
	// phases within [0, Cycle), measured from WindowStart.
	GreenToRedPhase, RedToGreenPhase float64
	// WindowStart/WindowEnd delimit the analysed window, seconds.
	WindowStart, WindowEnd float64
	// Records and Stops count the inputs that survived preprocessing.
	Records, Stops int
	// Enhanced reports whether the perpendicular approach's samples were
	// mirrored into the cycle input (Eq. 3); false when the perpendicular
	// had no samples in the view.
	Enhanced bool
	// Quality is the fold score of the accepted cycle (adjusted R² of
	// speed variance explained by the fold phase): near zero or negative
	// means the "identified" cycle barely structures the data and the
	// result should be treated as low confidence. Consumers such as the
	// real-time engine can gate on it.
	Quality float64
	// Err is non-nil when identification failed for this approach; the
	// other fields are then undefined.
	Err error
}

// RunPipeline identifies the schedule of every signal approach present in
// the partition over the window [t0, t1]. Approaches are processed by a
// bounded worker pool — per-light identification is embarrassingly
// parallel once the data is partitioned (Section IV). The result map has
// one entry per input partition key.
func RunPipeline(part mapmatch.Partition, t0, t1 float64, cfg PipelineConfig) (map[mapmatch.Key]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var rm roundMem
	rm.load(part)
	keys := make([]mapmatch.Key, 0, len(part))
	for k := range part {
		keys = append(keys, k)
	}
	sortKeys(keys)
	// Stop extraction is global (see StopIndex) and shared, read-only,
	// by all workers.
	rm.index.build(rm.view, rm.names, cfg.Stops)
	results := rm.identify(keys, t0, t1, cfg)
	out := make(map[mapmatch.Key]Result, len(keys))
	for i, k := range keys {
		out[k] = results[i]
	}
	return out, nil
}

// sortKeys orders approach keys deterministically (light, then approach).
func sortKeys(keys []mapmatch.Key) { slices.SortFunc(keys, compareKeys) }

func compareKeys(a, b mapmatch.Key) int {
	if a.Light != b.Light {
		return cmp.Compare(a.Light, b.Light)
	}
	return cmp.Compare(a.Approach, b.Approach)
}

// identify runs identification for the listed approach keys against the
// view and its already built stop index, and returns one result per key,
// in key order, in rm.results. The view may contain more keys than are
// identified — the incremental engine passes the perpendicular
// approaches of dirty keys as enhancement/stop-index context without
// recomputing them.
func (rm *roundMem) identify(keys []mapmatch.Key, t0, t1 float64, cfg PipelineConfig) []Result {
	workers := effectiveWorkers(cfg.Workers, len(keys))
	results := reuse(rm.results, len(keys))[:len(keys)]
	rm.results = results
	if len(keys) == 0 {
		return results // no key, so no wait for a scratch
	}
	if workers == 1 {
		// Serial fast path: no goroutine, channel, or scheduler traffic,
		// so workers=1 is a true baseline for the scaling benches and the
		// cheapest shape for the tiny rounds of a quiet shard.
		sc := getScratch()
		for i := range keys {
			results[i] = identifyOneSafe(rm.view, &rm.index, keys[i], t0, t1, cfg, sc)
		}
		putScratch(sc)
		return results
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker borrows only once it has a key: with more workers
			// than the set has cores, the rest find the jobs gone instead
			// of queueing for a scratch they would not use.
			var sc *identifyScratch
			for i := range jobs {
				if sc == nil {
					sc = getScratch()
				}
				results[i] = identifyOneSafe(rm.view, &rm.index, keys[i], t0, t1, cfg, sc)
			}
			if sc != nil {
				putScratch(sc)
			}
		}()
	}
	for i := range keys {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// effectiveWorkers resolves a configured worker count (0 = GOMAXPROCS)
// against the number of keys a round actually recomputes: never more
// workers than keys, never fewer than one.
func effectiveWorkers(configured, nkeys int) int {
	w := configured
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nkeys {
		w = nkeys
	}
	if w < 1 {
		w = 1
	}
	return w
}

// identifyHook, when non-nil, runs at the start of every per-approach
// identification. It exists solely so tests can provoke a panic inside
// one approach and prove the blast radius stays contained.
var identifyHook func(key mapmatch.Key)

// identifyOneSafe contains a panic in one approach's identification to
// that approach: hostile data must never let one light take down the
// estimation round for every other light. The panic is converted into
// the approach's Result.Err, which the realtime engine's quarantine
// ledger then handles like any other per-approach failure.
func identifyOneSafe(view map[mapmatch.Key]obsView, stopIdx *StopIndex, key mapmatch.Key, t0, t1 float64, cfg PipelineConfig, sc *identifyScratch) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{
				Key: key, WindowStart: t0, WindowEnd: t1,
				Err: fmt.Errorf("core: identification panic for %v/%v: %v", key.Light, key.Approach, r),
			}
		}
	}()
	if identifyHook != nil {
		identifyHook(key)
	}
	return identifyOne(view, stopIdx, key, t0, t1, cfg, sc)
}

// identifyOne runs the full single-light procedure for one approach. All
// intermediates live in the worker's scratch: the windowed speed series
// is computed once and reused by the fold-quality score and the
// superposition. The cycle is read off the intersection-based
// enhancement (Eq. 3) whenever the perpendicular approach has samples.
func identifyOne(view map[mapmatch.Key]obsView, stopIdx *StopIndex, key mapmatch.Key, t0, t1 float64, cfg PipelineConfig, sc *identifyScratch) Result {
	ms := view[key]
	res := Result{Key: key, WindowStart: t0, WindowEnd: t1, Records: ms.n}

	primary := appendSpeedSamples(sc.primary[:0], ms, stopIdx, cfg.MaxSpeedDist)
	sc.primary = primary
	win := appendWindowed(sc.win[:0], primary, t0, t1)
	sc.win = win
	cycIn := primary
	perp := appendSpeedSamples(sc.perp[:0], view[key.PerpendicularKey()], stopIdx, cfg.MaxSpeedDist)
	sc.perp = perp
	if len(perp) > 0 {
		cycIn = enhanceSc(sc, primary, perp)
		res.Enhanced = true
	}
	in, err := cycleInputSc(sc, cycIn, t0, t1, cfg.Cycle)
	if err != nil {
		if thin, ok := err.(*thinError); ok {
			thin.stage, res.Err = "cycle: ", thin // formatted when read
		} else {
			res.Err = fmt.Errorf("cycle: %w", err)
		}
		return res
	}
	// A key too thin for the red stage fails there whatever cycle the
	// spectrum would give: identifyRedSc keeps a stop only if it is no
	// longer than the cycle, and no cycle exceeds maxIdentifiedCycle. An
	// eighth of the recomputed keys fail this way every round; they skip
	// the resample, the transform and 57 fold scores.
	stops := stopIdx.Stops(key)
	res.Stops = len(stops)
	if n := countStopsWithin(stops, maxIdentifiedCycle(cfg.Cycle, t0, t1)); n < cfg.Red.MinStops {
		res.Err = &thinError{stage: "red: ", detail: "at most %d usable stops under any cycle, need %d", have: n, need: cfg.Red.MinStops}
		return res
	}
	cycle, err := cycleFromSpectrumSc(sc, in, t0, t1, cfg.Cycle)
	if err != nil {
		res.Err = fmt.Errorf("cycle: %w", err)
		return res
	}
	res.Cycle = cycle
	res.Quality = foldScoreSc(sc, win, momentsOf(win), cycle, t0)

	red, err := identifyRedSc(sc, stops, cycle, cfg.Red)
	if err != nil {
		res.Err = fmt.Errorf("red: %w", err)
		return res
	}
	folded, err := superposeSc(sc, win, cycle, t0)
	if err != nil {
		res.Err = fmt.Errorf("superpose: %w", err)
		return res
	}
	ch, err := identifyChangeSc(sc, folded, cycle, red)
	if err != nil {
		res.Err = fmt.Errorf("change: %w", err)
		return res
	}
	res.Red = red
	res.Green = cycle - red
	res.GreenToRedPhase = ch.GreenToRed
	res.RedToGreenPhase = ch.RedToGreen
	return res
}
