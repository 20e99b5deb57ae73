package trace

import (
	"fmt"
	"math/rand"
	"time"

	"taxilight/internal/geo"
	"taxilight/internal/trafficsim"
)

// IntervalChoice is one component of the update-interval mixture: a fixed
// reporting interval and its probability weight.
type IntervalChoice struct {
	Seconds float64
	Weight  float64
}

// DefaultIntervals reproduces the empirical mixture behind Fig. 2(b):
// visible peaks at 15 s, 30 s and 60 s, a mean around 20 s, plus minor
// 5/10/20 s populations. Packet loss stretches the observed tail beyond
// 100 s exactly as in the paper.
func DefaultIntervals() []IntervalChoice {
	// Weights are chosen so the record-weighted (i.e. per-consecutive-
	// pair) mean interval is ~20 s: fast reporters contribute more pairs,
	// so the observed mean is the harmonic mean of this distribution.
	return []IntervalChoice{
		{Seconds: 5, Weight: 0.02},
		{Seconds: 10, Weight: 0.08},
		{Seconds: 15, Weight: 0.30},
		{Seconds: 20, Weight: 0.10},
		{Seconds: 30, Weight: 0.30},
		{Seconds: 60, Weight: 0.20},
	}
}

// ActivityProfile maps a second-of-day to the probability that an active
// report is actually produced, modelling the diurnal record-count curve of
// Fig. 2(a) (night lull, morning ramp, afternoon shift-change dip).
type ActivityProfile func(daySecond float64) float64

// ShenzhenActivity is the default diurnal profile: quiet 03:00–06:00,
// busy daytime, a dip around the 16:30 driver shift change.
func ShenzhenActivity(daySecond float64) float64 {
	h := daySecond / 3600
	switch {
	case h < 1:
		return 0.55
	case h < 5:
		return 0.30
	case h < 7:
		return 0.55
	case h < 9:
		return 0.95
	case h < 16:
		return 0.90
	case h < 17: // driver shift change
		return 0.55
	case h < 22:
		return 0.95
	default:
		return 0.70
	}
}

// GenConfig parameterises a Generator.
type GenConfig struct {
	Sim  *trafficsim.Simulator
	Proj *geo.Projection
	Seed int64
	// Epoch maps simulator time zero onto wall-clock time, giving the
	// Table-I report timestamps.
	Epoch time.Time
	// NoiseSigma is the standard deviation of per-axis GPS error in
	// metres; HeavyProb/HeavySigma add the occasional urban-canyon
	// outlier of up to ~100 m the paper warns about.
	NoiseSigma float64
	HeavyProb  float64
	HeavySigma float64
	// DropProb is the probability any single report is lost in the
	// cellular uplink, stretching observed intervals.
	DropProb float64
	// Intervals is the per-taxi reporting-interval mixture; defaults to
	// DefaultIntervals when nil.
	Intervals []IntervalChoice
	// Activity modulates report emission by time of day; nil means
	// always active.
	Activity ActivityProfile
}

// Epoch anchors simulated time zero: the wall-clock instant of stream
// second 0 in every generated trace and every matcher that reads one.
// December 5 2014 is the day the paper's Fig. 1/Fig. 13 snapshots were
// taken.
var Epoch = time.Date(2014, 12, 5, 0, 0, 0, 0, time.UTC)

// DefaultGenConfig returns the trace model used throughout the
// experiments: 15 m typical GPS noise with 3 % heavy (50 m sigma)
// outliers, 3 % packet loss, and the Shenzhen diurnal profile.
func DefaultGenConfig(sim *trafficsim.Simulator, proj *geo.Projection) GenConfig {
	return GenConfig{
		Sim:        sim,
		Proj:       proj,
		Seed:       1,
		Epoch:      Epoch,
		NoiseSigma: 15,
		HeavyProb:  0.03,
		HeavySigma: 50,
		DropProb:   0.03,
		Intervals:  DefaultIntervals(),
		Activity:   ShenzhenActivity,
	}
}

// Validate checks the configuration.
func (c GenConfig) Validate() error {
	switch {
	case c.Sim == nil:
		return fmt.Errorf("trace: nil simulator")
	case c.Proj == nil:
		return fmt.Errorf("trace: nil projection")
	case c.NoiseSigma < 0 || c.HeavySigma < 0:
		return fmt.Errorf("trace: negative noise sigma")
	case c.HeavyProb < 0 || c.HeavyProb > 1:
		return fmt.Errorf("trace: heavy-noise probability %v outside [0,1]", c.HeavyProb)
	case c.DropProb < 0 || c.DropProb > 1:
		return fmt.Errorf("trace: drop probability %v outside [0,1]", c.DropProb)
	case c.Epoch.IsZero():
		return fmt.Errorf("trace: zero epoch")
	}
	return nil
}

// Generator samples the simulator into Table-I records. Each taxi reports
// at its own fixed interval (drawn once from the mixture, as real onboard
// units are configured once), with phase offsets scattered so the fleet
// does not report in lockstep.
type Generator struct {
	cfg       GenConfig
	rng       *rand.Rand
	intervals []float64 // per-taxi reporting interval
	nextAt    []float64 // per-taxi next report time
	plates    []string
	sims      []string
	colors    []string
	// ring holds the batches Stream's two stages pass back and forth,
	// kept between calls so a chunked caller does not regrow them.
	ring [streamRing][]Record
}

// NewGenerator builds a Generator over the given simulator.
func NewGenerator(cfg GenConfig) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Intervals == nil {
		cfg.Intervals = DefaultIntervals()
	}
	var wTotal float64
	for _, ic := range cfg.Intervals {
		if ic.Seconds <= 0 || ic.Weight < 0 {
			return nil, fmt.Errorf("trace: bad interval choice %+v", ic)
		}
		wTotal += ic.Weight
	}
	if wTotal <= 0 {
		return nil, fmt.Errorf("trace: interval weights sum to zero")
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	n := cfg.Sim.NumVehicles()
	g.intervals = make([]float64, n)
	g.nextAt = make([]float64, n)
	g.plates = make([]string, n)
	g.sims = make([]string, n)
	g.colors = make([]string, n)
	palette := []string{"yellow", "blue", "red", "green"}
	for i := 0; i < n; i++ {
		x := g.rng.Float64() * wTotal
		for _, ic := range cfg.Intervals {
			if x < ic.Weight {
				g.intervals[i] = ic.Seconds
				break
			}
			x -= ic.Weight
		}
		if g.intervals[i] == 0 {
			g.intervals[i] = cfg.Intervals[len(cfg.Intervals)-1].Seconds
		}
		g.nextAt[i] = cfg.Sim.Now() + g.rng.Float64()*g.intervals[i]
		g.plates[i] = fmt.Sprintf("B%05d", 10000+i)
		g.sims[i] = fmt.Sprintf("1380000%05d", i)
		g.colors[i] = palette[i%len(palette)]
	}
	return g, nil
}

// Collect advances the simulator until the given sim-time and returns all
// records emitted in [previous now, until), in chronological order. For
// day-scale traces prefer Stream, which does not buffer.
func (g *Generator) Collect(until float64) []Record {
	var out []Record
	// Stream only errors when the callback does; ours never does.
	_ = g.Stream(until, func(r Record) error {
		out = append(out, r)
		return nil
	})
	return out
}

func mod86400(t float64) float64 {
	d := t - 86400*float64(int64(t/86400))
	if d < 0 {
		d += 86400
	}
	return d
}

// record converts one simulator state into a noisy Table-I record.
func (g *Generator) record(st trafficsim.State, now float64) Record {
	sigma := g.cfg.NoiseSigma
	if g.rng.Float64() < g.cfg.HeavyProb {
		sigma = g.cfg.HeavySigma
	}
	pos := st.Pos
	pos.X += g.rng.NormFloat64() * sigma
	pos.Y += g.rng.NormFloat64() * sigma
	pt := g.cfg.Proj.Inverse(pos)
	// Onboard units read speed from the vehicle bus, not from GPS
	// deltas, so the reported speed is near-exact with mild jitter.
	speedKMH := st.SpeedMS*3.6 + g.rng.NormFloat64()*0.5
	if speedKMH < 0 || st.SpeedMS == 0 {
		speedKMH = 0
	}
	return Record{
		Plate:    g.plates[st.ID],
		Lon:      pt.Lon,
		Lat:      pt.Lat,
		Time:     g.cfg.Epoch.Add(time.Duration(now * float64(time.Second))),
		DeviceID: int64(900000 + st.ID),
		SpeedKMH: speedKMH,
		Heading:  st.Heading,
		GPSOK:    true,
		SIM:      g.sims[st.ID],
		Occupied: st.Occupied,
		Color:    g.colors[st.ID],
	}
}

// streamRing is how many one-second batches a generator owns, and so how
// far Stream's producer can run ahead of the record fn is looking at. A
// stage that finds the ring full (or empty) parks, and the wake-up costs
// more than a batch takes to fill, so the depth has to ride out the
// stages' jitter — a flush, a collection, a preemption: with two slots the
// pipeline measured no faster than a serial loop, with four the two
// threads still idled a third of the time, from sixteen up (a few hundred
// kilobytes for a 2000-taxi fleet) the gain levelled off.
const streamRing = 16

// Stream advances the simulator until the given sim-time, delivering each
// record to fn as it is produced instead of buffering the whole trace —
// the real feed is ~80 million records a day, which must not live in
// memory at once. Generation stops early if fn returns an error, which is
// passed through.
//
// Two stages run side by side: a producer goroutine steps the simulator
// and renders each second's reports into a batch, and the calling
// goroutine hands the batches' records to fn, in order. The producer has
// exited by the time Stream returns, so between calls the simulator and
// the generator are the caller's alone, and they are where a serial loop
// would have left them. During the call they are the producer's:
//
//   - fn must not touch the simulator, which has run up to streamRing
//     batches past the record fn was given;
//   - a generator whose Stream returned an error is spent: the simulator
//     and the random stream are past the failing record, so a resumed
//     trace would have a hole in it.
func (g *Generator) Stream(until float64, fn func(Record) error) error {
	// Both channels carry indexes into g.ring and are sized to hold them
	// all, so a hand-over never blocks; a stage waits only to receive.
	free := make(chan int, streamRing)
	full := make(chan int, streamRing)
	for i := range g.ring {
		free <- i
	}
	stop := make(chan struct{})
	go g.produce(until, free, full, stop)
	// On every way out — the end of the trace, an error from fn, a panic
	// in it — stop the producer and wait until it has closed full.
	defer func() {
		close(stop)
		for range full {
		}
	}()
	for i := range full {
		batch := g.ring[i]
		for k := range batch {
			if err := fn(batch[k]); err != nil {
				return err
			}
		}
		free <- i
	}
	return nil
}

// produce is Stream's first stage and, while it runs, the only code that
// reads or writes the simulator, the random stream or the report
// schedule. It fills one batch per simulated second that has reports,
// sends its index on full, and closes full on the way out: at until, or
// when stop is closed while it waits for a free batch.
func (g *Generator) produce(until float64, free <-chan int, full chan<- int, stop <-chan struct{}) {
	defer close(full)
	sim := g.cfg.Sim
	slot := -1 // the batch being filled; none after a hand-over
	for sim.Now() < until {
		if slot < 0 {
			select {
			case slot = <-free:
			case <-stop:
				return
			}
		}
		sim.Step()
		now := sim.Now()
		daySec := mod86400(now)
		batch := g.ring[slot][:0]
		for id := range g.nextAt {
			if now < g.nextAt[id] {
				continue
			}
			g.nextAt[id] += g.intervals[id]
			for g.nextAt[id] <= now {
				g.nextAt[id] += g.intervals[id]
			}
			if g.cfg.Activity != nil && g.rng.Float64() >= g.cfg.Activity(daySec) {
				continue
			}
			if g.rng.Float64() < g.cfg.DropProb {
				continue
			}
			batch = append(batch, g.record(sim.StateOf(id), now))
		}
		g.ring[slot] = batch
		if len(batch) > 0 {
			full <- slot
			slot = -1
		}
	}
}
