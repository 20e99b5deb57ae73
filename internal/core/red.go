package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// StopEvent is one contiguous run of stationary records from a single taxi
// in front of a light: the taxi reported from (approximately) the same
// position from Start to End.
type StopEvent struct {
	Plate string
	// Start and End are the first and last record times of the
	// stationary run, in seconds.
	Start, End float64
	// OccupancyChanged reports whether the passenger flag flipped during
	// the run — the paper's signal that the stop was a pick-up/drop-off
	// rather than a red light, so the event must be discarded.
	OccupancyChanged bool
	// Records is the number of reports in the run.
	Records int
}

// Duration returns the observed stop duration in seconds.
func (e StopEvent) Duration() float64 { return e.End - e.Start }

// RedConfig tunes red-light duration identification.
type RedConfig struct {
	// MinStops is the minimum number of usable stop events.
	MinStops int
}

// DefaultRedConfig returns the configuration the pipeline runs with.
func DefaultRedConfig() RedConfig { return RedConfig{MinStops: 8} }

// Validate checks the configuration.
func (c RedConfig) Validate() error {
	if c.MinStops < 1 {
		return fmt.Errorf("core: MinStops %d < 1", c.MinStops)
	}
	return nil
}

// FilterStops applies the paper's two error filters: stops whose duration
// exceeds the cycle length are dropped, and stops during which the
// passenger condition changed are dropped. Zero, negative and NaN
// durations (single-record runs among them) are dropped too.
func FilterStops(stops []StopEvent, cycle float64) []StopEvent {
	var usable []StopEvent
	for _, e := range stops {
		if e.usableWithin(cycle) {
			usable = append(usable, e)
		}
	}
	return usable
}

// usableWithin is the filter of FilterStops for one event.
func (e StopEvent) usableWithin(cycle float64) bool {
	d := e.Duration()
	return d > 0 && d <= cycle && !e.OccupancyChanged
}

// countStopsWithin is len(FilterStops(stops, cycle)).
func countStopsWithin(stops []StopEvent, cycle float64) int {
	n := 0
	for i := range stops {
		if stops[i].usableWithin(cycle) {
			n++
		}
	}
	return n
}

// IdentifyRed estimates the red-light duration from stop events given a
// known cycle length. Taxis reach a red light at uniform phases, so a
// red-light stop S is uniform on (0, red]; a taxi reporting every c
// seconds from a random phase sees it as a run of k reports, and the
// runs of fewer than two reports never reach the stop index. The
// estimate maximises the likelihood of every usable run's report count
// over red on a half-second grid, with a share ε of at most 0.95 of
// unflagged dwells that stop for anything up to the cycle (see
// stopShape.prob). A run's span counts to the trace format's second (see
// redShapesSc). A run without a cadence (fewer than two records but a
// positive duration) is taken at its exact duration. With fewer than
// cfg.MinStops usable stops it fails with ErrInsufficientData; with that
// many it returns a red in (0, cycle) for any finite cycle of a second or
// more.
func IdentifyRed(stops []StopEvent, cycle float64, cfg RedConfig) (float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	return identifyRedSc(sc, stops, cycle, cfg)
}

const (
	// maxDwellShare bounds ε: some runs must be red-light stops.
	maxDwellShare = 0.95
	// likelihoodTie is how close two log-likelihoods count as equal; a
	// tie goes to the longer red. On a flat stretch of the likelihood no
	// run tells the reds apart, and the longest red there leaves no
	// report count unexplained.
	likelihoodTie = 1e-9
	// maxRedGrid bounds the red grid: a cycle longer than maxRedGrid half
	// seconds is searched on a coarser step.
	maxRedGrid = 1 << 12
)

// stopShape is a class of usable runs the likelihood cannot tell apart:
// the same report count and the same span (to the second, for a run with a
// cadence; see redShapesSc).
type stopShape struct {
	records int     // reports in the run
	span    float64 // End - Start, in (0, cycle]
	perCad  float64 // 1/cadence, (records-1)/span; 0 for exact duration
	runs    float64 // usable runs of this shape
	dwell   float64 // the shape's probability as a dwell
	red     float64 // its probability under the red being scored
	last    float64 // its probability under the last red scored
	// idleRuns and idleLog sum runs and runs·log(dwell) over this shape
	// and every longer one: the runs a red no longer than span leaves to
	// the dwells.
	idleRuns, idleLog float64
}

func compareShapes(a, b stopShape) int {
	return cmp.Or(cmp.Compare(a.span, b.span), cmp.Compare(a.records, b.records))
}

// prob is the probability that a stop S ~ U(0, r), seen by a reporter of
// the shape's cadence c from a uniform phase, yields the shape's report
// count k, given that it yields at least two. ⌊S/c + U⌋ reports fall
// in it, so P(k | S) is the unit tent at S/c - k and, with y = r/c,
// P(k | r) = G(y - k) / H(y): G is the tent's CDF, and H(y) is the
// share of stops that yield two or more reports. A run of exact duration
// (fewer than two records) takes the limit c -> 0, the density 1/r on
// (0, r].
func (s *stopShape) prob(r float64) float64 {
	if s.perCad == 0 {
		if s.span <= r {
			return 1 / r
		}
		return 0
	}
	y := r * s.perCad
	z := y - float64(s.records)
	switch {
	case z <= -1:
		return 0
	case y < 2:
		return 1 // only a stop of two reports fits: k = 2, and G = H
	case z <= 0:
		z = (1 + z) * (1 + z) / 2
	case z < 1:
		z = 1 - (1-z)*(1-z)/2
	default:
		z = 1
	}
	return z / (y - 1.5)
}

// redShapesSc groups the usable runs of stops into shapes, in order of
// span, in the scratch's buffer, and counts the runs. Usability is
// decided on the exact duration. A run of two or more reports spans two
// report timestamps, which the trace format carries to the second, so its
// span is rounded to a whole second and kept inside (0, cycle]: a feed of
// fractional timestamps yields at most one shape per second of the cycle
// and report count, and whole-second spans group exactly as they are. A
// run without a cadence, which the stop index never yields, keeps its
// exact duration.
func redShapesSc(sc *identifyScratch, stops []StopEvent, cycle float64) ([]stopShape, int) {
	sc.needs(len(stops))
	shapes := sc.shapes[:0]
	for _, e := range stops {
		if !e.usableWithin(cycle) {
			continue
		}
		span := e.Duration()
		if e.Records >= 2 {
			span = min(max(math.Round(span), 1), cycle)
		}
		shapes = append(shapes, stopShape{records: e.Records, span: span, runs: 1})
	}
	sc.shapes = shapes
	usable := len(shapes)
	slices.SortFunc(shapes, compareShapes)
	n := 0
	for i := range shapes {
		if n > 0 && compareShapes(shapes[n-1], shapes[i]) == 0 {
			shapes[n-1].runs++
		} else {
			shapes[n] = shapes[i]
			n++
		}
	}
	return shapes[:n], usable
}

// identifyRedSc is IdentifyRed with the run shapes in a scratch buffer.
func identifyRedSc(sc *identifyScratch, stops []StopEvent, cycle float64, cfg RedConfig) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if !(cycle > 0) {
		return 0, fmt.Errorf("core: non-positive cycle %v", cycle)
	}
	shapes, usable := redShapesSc(sc, stops, cycle)
	if usable < cfg.MinStops {
		return 0, fmt.Errorf("%w: %d usable stops, need %d", ErrInsufficientData, usable, cfg.MinStops)
	}
	var idleRuns, idleLog float64
	for i := len(shapes) - 1; i >= 0; i-- {
		s := &shapes[i]
		if s.records >= 2 {
			s.perCad = float64(s.records-1) / s.span
		}
		// An unflagged dwell stops for up to a cycle. A run that spans the
		// whole cycle needs a longer stop, so it takes its mass as a dwell
		// from one cadence more: every usable run has some.
		if s.dwell = s.prob(cycle); !(s.dwell > 0) {
			s.dwell = s.prob(cycle + 1/s.perCad)
		}
		idleRuns += s.runs
		idleLog += s.runs * math.Log(s.dwell)
		s.idleRuns, s.idleLog = idleRuns, idleLog
	}

	// At red r the sum over runs of log((1-ε)·P_r + ε·P_dwell) is scored
	// at the dwell share ε the last grid point moved to, then one Newton
	// step moves ε on: the sum is concave in ε, and its maximum moves
	// little from one grid point to the next. A red explains no run longer
	// than it, and the shapes are in order of span, so the ones it may
	// explain are shapes[:active]; the rest add idleRuns·log ε + idleLog.
	//
	// At a fixed ε a run's term changes from the last red scored by at most
	// log of the ratio of its red probabilities when that exceeds 1, and
	// log x <= x - 1; last is the sum at that red and at the ε the next
	// score would use (concavity bounds it by the score plus slope times
	// step). A red whose bound falls short of the best is passed over; a
	// run the last red could not explain leaves no bound.
	step := math.Max(0.5, cycle/maxRedGrid)
	var red, best, last float64
	eps, active := maxDwellShare/2, 0
	for j := 1; float64(j)*step < cycle; j++ {
		r := float64(j) * step
		for active < len(shapes) && shapes[active].span <= r {
			active++
		}
		bound := last
		for i := range shapes[:active] {
			s := &shapes[i]
			if s.red = s.prob(r); s.red > s.last {
				bound += s.runs * (s.red/s.last - 1)
			}
		}
		if red != 0 && bound < best-likelihoodTie {
			continue
		}
		var ll, g, h float64
		if active < len(shapes) {
			w := shapes[active].idleRuns
			ll, g, h = w*math.Log(eps)+shapes[active].idleLog, w/eps, w/(eps*eps)
		}
		for i := range shapes[:active] {
			s := &shapes[i]
			s.last = s.red
			m := s.red + eps*(s.dwell-s.red)
			q := (s.dwell - s.red) / m
			ll += s.runs * math.Log(m)
			g += s.runs * q
			h += s.runs * q * q
		}
		switch {
		case red == 0 || ll > best:
			red, best = r, ll
		case ll >= best-likelihoodTie:
			red = r
		}
		last = ll
		if next := min(max(eps+g/h, 1e-6), maxDwellShare); next == next {
			last += g * (next - eps)
			eps = next
		}
	}
	if red == 0 {
		return 0, fmt.Errorf("core: cycle %v too short for a red", cycle)
	}
	return red, nil
}
