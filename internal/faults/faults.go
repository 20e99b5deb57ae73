// Package faults provides composable, seedable fault injectors for taxi
// trace streams. Real floating-car feeds are dirty by construction — GPS
// noise, packet loss and irregular intervals (Fig. 2), plus the
// malformed, duplicated and clock-skewed records that dominate field
// probe data — so every hardening claim the system makes must be
// testable against a reproducible hostile feed. The injectors model the
// pathologies at the layer where they occur: device-level faults (clock
// skew, frozen GPS, teleporting fixes) mutate records, uplink faults
// (bursty drop, duplication, reordering) drop or reshuffle them, and
// transport corruption damages the serialised CSV bytes.
package faults

import (
	"fmt"
	"math/rand"

	"taxilight/internal/trace"
)

// Config enables and tunes the individual injectors. A zero probability
// disables the corresponding injector entirely; the zero Config is a
// valid no-op pipeline.
type Config struct {
	// Seed makes every hostile feed reproducible. Each injector draws
	// from its own stream derived from Seed, so enabling one injector
	// never changes another's decisions.
	Seed int64

	// CorruptProb is the per-line probability that the serialised CSV
	// bytes are damaged (byte flip, insert, delete or truncation).
	CorruptProb float64

	// DupProb is the per-record probability of a duplicated uplink
	// delivery (the record is emitted twice).
	DupProb float64

	// ReorderProb delays a record by up to ReorderMaxDelay subsequent
	// records, producing out-of-order delivery.
	ReorderProb     float64
	ReorderMaxDelay int

	// SkewProb is the per-device probability that the onboard clock is
	// skewed by a constant offset uniform in ±SkewMaxSeconds.
	SkewProb       float64
	SkewMaxSeconds float64

	// FreezeProb starts, per record, a frozen-GPS run: the device
	// repeats its current coordinates for up to FreezeMaxRun further
	// reports while speed keeps coming from the vehicle bus.
	FreezeProb   float64
	FreezeMaxRun int

	// TeleportProb replaces a single fix with one displaced by up to
	// TeleportMeters — the urban-canyon multipath jump.
	TeleportProb   float64
	TeleportMeters float64

	// BurstDropProb starts, per record, a per-device drop burst of up to
	// BurstDropMaxLen consecutive reports (cellular dead zone).
	BurstDropProb   float64
	BurstDropMaxLen int
}

// DefaultHostileConfig is the reference hostile feed: every injector
// active at rates aggressive enough to exercise the tolerant paths while
// leaving the identification problem solvable. The soak test and the
// acceptance runs use exactly these rates.
func DefaultHostileConfig() Config {
	return Config{
		Seed:            1,
		CorruptProb:     0.01,
		DupProb:         0.05,
		ReorderProb:     0.05,
		ReorderMaxDelay: 20,
		SkewProb:        0.05,
		SkewMaxSeconds:  30,
		FreezeProb:      0.01,
		FreezeMaxRun:    5,
		TeleportProb:    0.005,
		TeleportMeters:  800,
		BurstDropProb:   0.002,
		BurstDropMaxLen: 10,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	probs := map[string]float64{
		"CorruptProb":   c.CorruptProb,
		"DupProb":       c.DupProb,
		"ReorderProb":   c.ReorderProb,
		"SkewProb":      c.SkewProb,
		"FreezeProb":    c.FreezeProb,
		"TeleportProb":  c.TeleportProb,
		"BurstDropProb": c.BurstDropProb,
	}
	for name, p := range probs {
		if p < 0 || p > 1 {
			return fmt.Errorf("faults: %s %v outside [0, 1]", name, p)
		}
	}
	if c.ReorderProb > 0 && c.ReorderMaxDelay < 1 {
		return fmt.Errorf("faults: ReorderMaxDelay %d with reordering enabled", c.ReorderMaxDelay)
	}
	if c.SkewProb > 0 && c.SkewMaxSeconds <= 0 {
		return fmt.Errorf("faults: SkewMaxSeconds %v with skew enabled", c.SkewMaxSeconds)
	}
	if c.FreezeProb > 0 && c.FreezeMaxRun < 1 {
		return fmt.Errorf("faults: FreezeMaxRun %d with freezing enabled", c.FreezeMaxRun)
	}
	if c.TeleportProb > 0 && c.TeleportMeters <= 0 {
		return fmt.Errorf("faults: TeleportMeters %v with teleporting enabled", c.TeleportMeters)
	}
	if c.BurstDropProb > 0 && c.BurstDropMaxLen < 1 {
		return fmt.Errorf("faults: BurstDropMaxLen %d with burst drop enabled", c.BurstDropMaxLen)
	}
	return nil
}

// Stats accounts for every record the pipeline touched.
type Stats struct {
	// Records entered the pipeline; Emitted left it (duplication adds,
	// bursty drop removes).
	Records, Emitted int
	// Per-injector event counts.
	Duplicated, Reordered, Frozen, Teleported, Dropped int
	// SkewedDevices counts devices assigned a clock offset.
	SkewedDevices int
	// CorruptedLines counts CSV lines damaged at serialisation.
	CorruptedLines int
}

// Injector transforms one record into zero or more records. Apply may
// hold records back; Flush releases anything still held at end of
// stream.
type Injector interface {
	Name() string
	Apply(rec trace.Record, emit func(trace.Record))
	Flush(emit func(trace.Record))
}

// Pipeline chains the configured injectors in the order the faults occur
// in the field: device-level mutations, then uplink loss/duplication,
// then network reordering. Byte corruption applies separately at
// serialisation time (CorruptLine / WriteFile). A Pipeline is stateful
// and single-use per stream; it is not safe for concurrent use.
type Pipeline struct {
	cfg   Config
	injs  []Injector
	crng  *rand.Rand // line-corruption stream
	stats Stats
}

// New builds a pipeline from the configuration.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{cfg: cfg, crng: rand.New(rand.NewSource(cfg.Seed ^ 0x636f7272))}
	// Fixed per-injector seed offsets keep each decision stream
	// independent of which other injectors are enabled.
	if cfg.SkewProb > 0 {
		p.injs = append(p.injs, newClockSkew(cfg, &p.stats))
	}
	if cfg.FreezeProb > 0 {
		p.injs = append(p.injs, newFrozenGPS(cfg, &p.stats))
	}
	if cfg.TeleportProb > 0 {
		p.injs = append(p.injs, newTeleporter(cfg, &p.stats))
	}
	if cfg.BurstDropProb > 0 {
		p.injs = append(p.injs, newBurstDropper(cfg, &p.stats))
	}
	if cfg.DupProb > 0 {
		p.injs = append(p.injs, newDuplicator(cfg, &p.stats))
	}
	if cfg.ReorderProb > 0 {
		p.injs = append(p.injs, newReorderer(cfg, &p.stats))
	}
	return p, nil
}

// Apply runs the record stream through every configured injector and
// returns the faulted stream. Stats accumulate across calls.
func (p *Pipeline) Apply(recs []trace.Record) []trace.Record {
	out := make([]trace.Record, 0, len(recs))
	emits := make([]func(trace.Record), len(p.injs)+1)
	emits[len(p.injs)] = func(r trace.Record) {
		p.stats.Emitted++
		out = append(out, r)
	}
	for i := len(p.injs) - 1; i >= 0; i-- {
		inj, next := p.injs[i], emits[i+1]
		emits[i] = func(r trace.Record) { inj.Apply(r, next) }
	}
	for _, r := range recs {
		p.stats.Records++
		emits[0](r)
	}
	// Flush in stage order so held records still traverse later stages.
	for i, inj := range p.injs {
		inj.Flush(emits[i+1])
	}
	return out
}

// Stats returns the accounting so far.
func (p *Pipeline) Stats() Stats { return p.stats }
