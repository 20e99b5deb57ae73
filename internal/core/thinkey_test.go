package core

import (
	"errors"
	"strings"
	"testing"

	"taxilight/internal/dsp"
	"taxilight/internal/mapmatch"
)

// TestThinKeyFailsBeforeSpectrum: a key with too few stops for the red
// stage under any cycle the spectrum could return fails with the error
// class the full path gives it — red, insufficient data — without a
// transform having run (the scratch's plan cache stays empty); a key too
// thin even for the cycle stage still reports that stage first; a dense
// key on the same scratch builds a plan and is served.
func TestThinKeyFailsBeforeSpectrum(t *testing.T) {
	thin, starved, dense := benchApproachKey(0), benchApproachKey(1), benchApproachKey(2)
	part := mapmatch.Partition{
		thin:    benchRecords(0, 0, 100), // one cycle: plenty of samples, a handful of stops
		starved: benchRecords(1, 0, 150)[:3],
		dense:   benchRecords(2, 0, 1800),
	}
	var rm roundMem
	rm.load(part)
	cfg := DefaultPipelineConfig()
	rm.index.build(rm.view, rm.names, cfg.Stops)
	sc := &identifyScratch{plans: map[int]*dsp.FFTPlan{}}

	// What the stages say when every one of them runs.
	samples := appendSpeedSamples(nil, rm.view[thin], &rm.index, cfg.MaxSpeedDist)
	cycle, err := identifyCycleSc(sc, samples, 0, 1800, cfg.Cycle)
	if err != nil {
		t.Fatalf("the thin key must pass the cycle stage to test anything: %v", err)
	}
	stops := rm.index.Stops(thin)
	_, fullErr := identifyRedSc(sc, stops, cycle, cfg.Red)
	if !errors.Is(fullErr, ErrInsufficientData) || len(stops) == 0 {
		t.Fatalf("the thin key must fail the red stage for want of stops, with some to count: %d stops, %v", len(stops), fullErr)
	}
	if bound := maxIdentifiedCycle(cfg.Cycle, 0, 1800); cycle > bound || bound > 1.25*cfg.Cycle.MaxCycle {
		t.Fatalf("cycle %v against a ceiling of %v for MaxCycle %v", cycle, bound, cfg.Cycle.MaxCycle)
	}

	clear(sc.plans)
	res := identifyOne(rm.view, &rm.index, thin, 0, 1800, cfg, sc)
	if !errors.Is(res.Err, ErrInsufficientData) || !strings.HasPrefix(res.Err.Error(), "red: ") {
		t.Fatalf("thin key: %v, want the red stage's insufficient data (the stages in full give: red: %v)", res.Err, fullErr)
	}
	if res.Stops != len(stops) {
		t.Errorf("thin key reports %d stops, want %d", res.Stops, len(stops))
	}
	if len(sc.plans) != 0 {
		t.Errorf("a transform was planned for a key the red stage was bound to refuse")
	}

	res = identifyOne(rm.view, &rm.index, starved, 0, 1800, cfg, sc)
	if !errors.Is(res.Err, ErrInsufficientData) || !strings.HasPrefix(res.Err.Error(), "cycle: ") {
		t.Fatalf("starved key: %v, want the cycle stage's insufficient data first", res.Err)
	}
	if len(sc.plans) != 0 {
		t.Errorf("a transform was planned for a key without samples")
	}

	if res = identifyOne(rm.view, &rm.index, dense, 0, 1800, cfg, sc); res.Err != nil {
		t.Fatalf("dense key is not served: %v", res.Err)
	}
	if len(sc.plans) == 0 {
		t.Errorf("the dense key was served without a plan: the plan cache does not count transforms")
	}
}
