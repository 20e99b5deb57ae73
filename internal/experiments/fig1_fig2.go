package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"taxilight/internal/geo"
	"taxilight/internal/roadnet"
	"taxilight/internal/stats"
	"taxilight/internal/trace"
	"taxilight/internal/trafficsim"
)

// Fig1 renders the qualitative counterpart of the paper's Fig. 1: an
// ASCII density map of aggregated taxi updates over the road network.
// The update mass must trace the grid's roads, mirroring how the paper's
// aggregated Shenzhen updates trace the OpenStreetMap road network.
func Fig1(w io.Writer, cfg WorldConfig) error {
	world, err := BuildWorld(cfg)
	if err != nil {
		return err
	}
	section(w, "Fig. 1 — aggregated taxi updates vs road network (ASCII density)")
	bb := world.Net.BBox().Pad(100)
	const cols, rows = 64, 24
	counts := make([][]int, rows)
	for i := range counts {
		counts[i] = make([]int, cols)
	}
	maxC := 0
	proj := world.Net.Projection()
	for _, r := range world.Records {
		p := proj.Forward(geo.Point{Lat: r.Lat, Lon: r.Lon})
		cx := int((p.X - bb.MinX) / bb.Width() * float64(cols))
		cy := int((p.Y - bb.MinY) / bb.Height() * float64(rows))
		if cx < 0 || cx >= cols || cy < 0 || cy >= rows {
			continue
		}
		counts[cy][cx]++
		if counts[cy][cx] > maxC {
			maxC = counts[cy][cx]
		}
	}
	ramp := " .:-=+*#%@"
	for y := rows - 1; y >= 0; y-- {
		var b strings.Builder
		for x := 0; x < cols; x++ {
			idx := 0
			if maxC > 0 {
				idx = counts[y][x] * (len(ramp) - 1) / maxC
			}
			b.WriteByte(ramp[idx])
		}
		fmt.Fprintln(w, b.String())
	}
	fmt.Fprintf(w, "records: %d, densest cell: %d updates\n", len(world.Records), maxC)
	return nil
}

// Fig2 reproduces the trace statistics of Fig. 2: (a) records per 10-min
// slot across a simulated day, (b) update-interval distribution, (c)
// update-distance distribution with the stationary share, (d)
// speed-difference distribution with its normal fit.
func Fig2(w io.Writer, cfg WorldConfig) error {
	cfg.Diurnal = true
	// Fig. 2 describes downtown Shenzhen: dense traffic, long reds
	// (mean observed red 91.7 s), congested speeds. Recreate that
	// texture: 600 m blocks, 40 km/h limit, cycles in [140, 200] s with
	// red-heavy splits, fewer lanes, and frequent kerbside dwells.
	cfg.GridOverride = func(g *roadnet.GridConfig) {
		g.Spacing = 600
		g.SpeedLimit = 6.9 // ~25 km/h: congested downtown average
		g.CycleMin, g.CycleMax = 140, 200
		g.RedFracMin, g.RedFracMax = 0.5, 0.7
	}
	cfg.SimOverride = func(s *trafficsim.Config) {
		s.Lanes = 2
		s.DwellProb = 0.45
	}
	world, err := BuildWorld(cfg)
	if err != nil {
		return err
	}
	s := summarize(world.Records, 600)

	section(w, "Fig. 2(a) — number of records per 10-minute slot")
	for i, c := range s.slotCounts {
		fmt.Fprintf(w, "slot %3d (%5.1f h): %6d\n", i, float64(i)*s.slotSeconds/3600, c)
	}

	section(w, "Fig. 2(b) — update interval distribution")
	fmt.Fprintf(w, "mean interval: %.2f s (paper: 20.41 s), std: %.2f s (paper: 20.54 s)\n",
		s.meanInterval, s.stdInterval)
	fmt.Fprint(w, s.intervals.ASCII(40))

	section(w, "Fig. 2(c) — distance between consecutive updates")
	fmt.Fprintf(w, "stationary share: %.2f%% (paper: 42.66%%), mean moving distance: %.1f m (paper: 100.69 m)\n",
		100*s.stationaryShare, s.meanMovingDistance)
	fmt.Fprint(w, s.distances.ASCII(40))

	section(w, "Fig. 2(d) — speed difference between consecutive updates")
	fmt.Fprintf(w, "normal fit: mu = %.2f km/h (paper: 0), sigma = %.1f km/h (paper: 40)\n",
		s.speedDiffFit.Mu, s.speedDiffFit.Sigma)
	if ks, _, err := stats.KSTestNormal(s.speedDiffs); err == nil {
		fmt.Fprintf(w, "Kolmogorov-Smirnov vs fitted normal: D = %.4f over %d diffs (the paper's \"fits normal distribution well\")\n",
			ks.D, ks.N)
	}
	fmt.Fprint(w, s.speedDiffHist.ASCII(40))
	return nil
}

// fig2Summary aggregates the Fig. 2 statistics of a trace: per-slot
// record counts (a), consecutive-update interval distribution (b),
// distance distribution with the stationary share (c), and
// speed-difference distribution with its normal fit (d).
type fig2Summary struct {
	// slotSeconds is the width of each record-count slot (600 s in the
	// paper's Fig. 2(a)).
	slotSeconds float64
	// slotCounts holds records per slot, starting at the first record.
	slotCounts []int
	// intervals is the histogram of seconds between consecutive updates
	// of the same taxi.
	intervals *stats.Histogram
	// meanInterval and stdInterval summarise the interval distribution
	// (the paper reports 20.41 s and 20.54 s).
	meanInterval, stdInterval float64
	// distances is the histogram of metres travelled between consecutive
	// updates of the same taxi.
	distances *stats.Histogram
	// stationaryShare is the fraction of consecutive update pairs whose
	// displacement is below the stationary threshold (42.66 % in the
	// paper — taxis waiting at red lights).
	stationaryShare float64
	// meanMovingDistance is the mean displacement of non-stationary
	// pairs (100.69 m in the paper).
	meanMovingDistance float64
	// speedDiffs are the km/h speed changes between consecutive updates,
	// speedDiffHist their histogram and speedDiffFit their normal fit
	// (the paper observes mu = 0, sigma = 40).
	speedDiffs    []float64
	speedDiffHist *stats.Histogram
	speedDiffFit  stats.NormalFit
	// total is the number of records summarised.
	total int
}

// stationaryThresholdMeters is the displacement below which a pair of
// consecutive updates counts as "stopped". GPS noise means true zero
// displacement is never observed: with ~15 m per-axis error on each of
// the two fixes, the displacement of a perfectly stationary taxi is
// Rayleigh-distributed with mean ~27 m, so the threshold must sit above
// that noise floor while staying far below one block length.
const stationaryThresholdMeters = 50.0

// summarize computes the Fig. 2 statistics of recs. Records are grouped
// per plate and ordered by time internally; the input is not modified.
func summarize(recs []trace.Record, slotSeconds float64) fig2Summary {
	s := fig2Summary{
		slotSeconds:   slotSeconds,
		intervals:     stats.NewHistogram(0, 130, 26),
		distances:     stats.NewHistogram(0, 1000, 50),
		speedDiffHist: stats.NewHistogram(-100, 100, 50),
		total:         len(recs),
	}
	if len(recs) == 0 {
		return s
	}
	byPlate := make(map[string][]trace.Record)
	var t0, t1 time.Time
	for i, r := range recs {
		byPlate[r.Plate] = append(byPlate[r.Plate], r)
		if i == 0 || r.Time.Before(t0) {
			t0 = r.Time
		}
		if i == 0 || r.Time.After(t1) {
			t1 = r.Time
		}
	}
	// Fig. 2(a): records per slot.
	nSlots := int(t1.Sub(t0).Seconds()/slotSeconds) + 1
	s.slotCounts = make([]int, nSlots)
	for _, r := range recs {
		i := int(r.Time.Sub(t0).Seconds() / slotSeconds)
		s.slotCounts[i]++
	}
	var intervals, movingDists []float64
	stationary, pairs := 0, 0
	for _, rs := range byPlate {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Time.Before(rs[j].Time) })
		for i := 1; i < len(rs); i++ {
			dt := rs[i].Time.Sub(rs[i-1].Time).Seconds()
			intervals = append(intervals, dt)
			s.intervals.Add(dt)
			d := geo.Distance(
				geo.Point{Lat: rs[i-1].Lat, Lon: rs[i-1].Lon},
				geo.Point{Lat: rs[i].Lat, Lon: rs[i].Lon},
			)
			s.distances.Add(d)
			pairs++
			if d < stationaryThresholdMeters {
				stationary++
			} else {
				movingDists = append(movingDists, d)
			}
			dv := rs[i].SpeedKMH - rs[i-1].SpeedKMH
			s.speedDiffs = append(s.speedDiffs, dv)
			s.speedDiffHist.Add(dv)
		}
	}
	s.meanInterval = stats.Mean(intervals)
	s.stdInterval = stats.StdDev(intervals)
	if pairs > 0 {
		s.stationaryShare = float64(stationary) / float64(pairs)
	}
	s.meanMovingDistance = stats.Mean(movingDists)
	if len(s.speedDiffs) >= 2 {
		s.speedDiffFit, _ = stats.FitNormal(s.speedDiffs)
	}
	return s
}
