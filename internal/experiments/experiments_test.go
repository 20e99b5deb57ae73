package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"taxilight/internal/core"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
	"taxilight/internal/trafficsim"
)

func smallWorld() WorldConfig {
	cfg := DefaultWorldConfig()
	cfg.Rows, cfg.Cols = 3, 3
	cfg.Taxis = 120
	cfg.Horizon = 1800
	return cfg
}

func TestBuildWorldDeterministic(t *testing.T) {
	a, err := BuildWorld(smallWorld())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorld(smallWorld())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestStreamedWorldMatchesCollect streams one world record by record
// through its matcher, and must reach the partition Collect builds for a
// second world of the same config on the same network.
func TestStreamedWorldMatchesCollect(t *testing.T) {
	cfg := smallWorld()
	net, err := roadnet.GenerateGrid(cfg.GridConfig())
	if err != nil {
		t.Fatal(err)
	}
	collected, err := buildWorldOn(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := NewWorld(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	part := mapmatch.Partition{}
	n := 0
	if err := streamed.Gen.Stream(cfg.Horizon, func(r trace.Record) error {
		n++
		if mt, ok := streamed.Matcher.Match(r); ok {
			k := mapmatch.Key{Light: mt.Light, Approach: mt.Approach}
			part[k] = append(part[k], mt)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(collected.Records) {
		t.Fatalf("streamed %d records, Collect kept %d", n, len(collected.Records))
	}
	if len(part) == 0 || !reflect.DeepEqual(part, collected.Part) {
		t.Fatalf("streamed partition (%d keys) differs from Collect's Part (%d keys)", len(part), len(collected.Part))
	}
}

// TestTable2WeightsKeyTheWorldsOwnNodes gives the Table II world a grid
// override that changes its size: the destination weights must key the
// nodes of the network the fleet drives on, not of a grid drawn without
// the override.
func TestTable2WeightsKeyTheWorldsOwnNodes(t *testing.T) {
	cfg := smallWorld()
	cfg.Horizon = 60
	cfg.GridOverride = func(g *roadnet.GridConfig) { g.Rows, g.Cols = 2, 3 }
	var weights map[roadnet.NodeID]float64
	cfg.SimOverride = func(s *trafficsim.Config) { weights = s.NodeWeights }
	w, err := buildTable2World(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(weights) != w.Net.NumNodes() {
		t.Fatalf("%d weights for a network of %d nodes", len(weights), w.Net.NumNodes())
	}
	for id := range weights {
		if int(id) >= w.Net.NumNodes() {
			t.Fatalf("weight for node %d outside the world's %d nodes", id, w.Net.NumNodes())
		}
	}
}

func TestFig1Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(&buf, smallWorld()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 1") || !strings.Contains(out, "records:") {
		t.Fatalf("unexpected output: %q", out[:min(200, len(out))])
	}
}

func TestFig2Runs(t *testing.T) {
	cfg := smallWorld()
	cfg.Horizon = 7200
	var buf bytes.Buffer
	if err := Fig2(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 2(a)", "Fig. 2(b)", "Fig. 2(c)", "Fig. 2(d)", "stationary share"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output", want)
		}
	}
}

func TestSingleLightFigsRun(t *testing.T) {
	var buf bytes.Buffer
	for name, fn := range map[string]func(*testing.T){
		"fig6":  func(t *testing.T) { mustNil(t, Fig6(&buf, 1)) },
		"fig7":  func(t *testing.T) { mustNil(t, Fig7(&buf, 1)) },
		"fig9":  func(t *testing.T) { mustNil(t, Fig9(&buf, 1)) },
		"fig10": func(t *testing.T) { mustNil(t, Fig10(&buf, 1)) },
		"fig11": func(t *testing.T) { mustNil(t, Fig11(&buf, 1)) },
	} {
		t.Run(name, fn)
	}
	if !strings.Contains(buf.String(), "border-interval estimate") {
		t.Fatal("fig9 output missing")
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full world")
	}
	var buf bytes.Buffer
	if err := Table2(&buf, DefaultWorldConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ShenNan/WenJin") || !strings.Contains(out, "imbalance") {
		t.Fatalf("Table II output incomplete")
	}
}

func TestFig13Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	var buf bytes.Buffer
	if err := Fig13(&buf, DefaultWorldConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean errors") {
		t.Fatal("Fig. 13 output incomplete")
	}
}

func TestCollectFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline, multiple runs")
	}
	cfg := smallWorld()
	cfg.Horizon = 3600
	errs, err := CollectFig14(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs.Cycle) < 20 {
		t.Fatalf("only %d cycle errors collected", len(errs.Cycle))
	}
	if len(errs.Cycle) != len(errs.Red) || len(errs.Red) != len(errs.Change) {
		t.Fatal("error series lengths differ")
	}
	// Fig. 14 bimodality: a majority of cycle errors tiny.
	small := 0
	for _, e := range errs.Cycle {
		if e <= 5 {
			small++
		}
	}
	if small*3 < len(errs.Cycle)*2 {
		t.Fatalf("cycle errors <= 5 s: %d/%d, want a clear majority", small, len(errs.Cycle))
	}
}

// TestCollectFig14HonoursSeed holds that run r of a Fig. 14 collection is
// seeded cfg.Seed + r, so -seed moves every repeated figure.
func TestCollectFig14HonoursSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline, multiple runs")
	}
	collect := func(seed int64, runs int) Fig14Errors {
		cfg := smallWorld()
		cfg.Seed = seed
		errs, err := CollectFig14(cfg, runs)
		if err != nil {
			t.Fatal(err)
		}
		return errs
	}
	first, both, second := collect(1, 1), collect(1, 2), collect(2, 1)
	n := len(first.Cycle)
	run2 := Fig14Errors{Cycle: both.Cycle[n:], Red: both.Red[n:], Change: both.Change[n:], Failures: both.Failures - first.Failures}
	if !slices.Equal(run2.Cycle, second.Cycle) || !slices.Equal(run2.Red, second.Red) ||
		!slices.Equal(run2.Change, second.Change) || run2.Failures != second.Failures {
		t.Fatalf("run 2 at seed 1 differs from run 1 at seed 2:\n%+v\n%+v", run2, second)
	}
	if slices.Equal(first.Cycle, second.Cycle) && slices.Equal(first.Red, second.Red) && slices.Equal(first.Change, second.Change) {
		t.Fatal("run 1 at seed 2 equals run 1 at seed 1: the seed is ignored")
	}
}

// TestFig14Pinned pins the batch accuracy of the Fig. 14 world at seed 1
// over 10 runs: the counts behind the printed CDFs and a digest of every
// error, in collection order. An estimate that moves fails it; re-record
// it only when moving estimates is the point of the change.
func TestFig14Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline, multiple runs")
	}
	errs, err := CollectFig14(DefaultWorldConfig(), 10)
	if err != nil {
		t.Fatal(err)
	}
	within := func(xs []float64, tol float64) int {
		n := 0
		for _, x := range xs {
			if x <= tol {
				n++
			}
		}
		return n
	}
	h := sha256.New()
	for _, xs := range [][]float64{errs.Cycle, errs.Red, errs.Change} {
		for _, x := range xs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"approaches identified", len(errs.Cycle), 320},
		{"cycle error > 10 s", len(errs.Cycle) - within(errs.Cycle, 10), 4},
		{"cycle error <= 1 s", within(errs.Cycle, 1), 315},
		{"red error <= 6 s", within(errs.Red, 6), 180},
		{"change error <= 6 s", within(errs.Change, 6), 243},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d, want %d", c.name, c.got, c.want)
		}
	}
	const want = "3102eaabed686e2f340c120540160b416e5cc842366e9ab08726032c752ecc78"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("error digest %s, want %s", got, want)
	}
}

func TestFig16Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("navigation sweep")
	}
	var buf bytes.Buffer
	if err := Fig16(&buf, 5, 5, 10, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "overall saving") {
		t.Fatal("Fig. 16 output incomplete")
	}
}

func TestFig12BadConfig(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig12(&buf, Fig12Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full end-to-end loop")
	}
	cfg := DefaultEndToEndConfig()
	cfg.World = smallWorld()
	cfg.World.Horizon = 3600
	cfg.Trips = 60
	res, err := RunEndToEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trips != 60 {
		t.Fatalf("trips = %d", res.Trips)
	}
	if res.IdentifiedApproaches == 0 {
		t.Fatal("nothing identified")
	}
	// Truth-schedule navigation is the lower bound; identified must
	// recover a meaningful share of its gain and never be (meaningfully)
	// worse than the blind baseline.
	if res.Truth > res.Identified+1 {
		t.Fatalf("truth (%v) slower than identified (%v)?", res.Truth, res.Identified)
	}
	if res.Identified > res.Baseline*1.02 {
		t.Fatalf("identified (%v) worse than baseline (%v)", res.Identified, res.Baseline)
	}
}

func TestFig14CompareRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pipeline sweeps")
	}
	cfg := smallWorld()
	cfg.Horizon = 3600
	var buf bytes.Buffer
	if err := Fig14Compare(&buf, cfg, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "paper mode") || !strings.Contains(out, "extended") {
		t.Fatalf("comparison output incomplete: %q", out)
	}
}

func TestPaperModePipelineConfig(t *testing.T) {
	cfg := PaperModePipelineConfig()
	want := core.DefaultPipelineConfig()
	want.Cycle.Candidates = 1
	if cfg != want {
		t.Fatalf("paper mode config wrong: %+v, want only Candidates 1 off the default", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSweepDensityRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-density sweep")
	}
	var buf bytes.Buffer
	if err := SweepDensity(&buf, 1, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "320") {
		t.Fatal("sweep output incomplete")
	}
}

func TestPipelineRobustToBackgroundTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	cfg := smallWorld()
	cfg.Horizon = 3600
	cfg.SimOverride = func(s *trafficsim.Config) { s.BackgroundRate = 0.15 }
	world, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := core.RunPipeline(world.Part, 0, world.Horizon, core.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	ok, total := 0, 0
	for key, res := range results {
		if res.Err != nil {
			continue
		}
		total++
		truth := world.Net.Node(key.Light).Light.ScheduleFor(key.Approach, 1800)
		if math.Abs(res.Cycle-truth.Cycle) <= 5 {
			ok++
		}
	}
	if total < 10 {
		t.Fatalf("only %d approaches identified", total)
	}
	if ok*3 < total*2 {
		t.Fatalf("cycle accuracy under background traffic: %d/%d", ok, total)
	}
}

func TestCorridorRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	var buf bytes.Buffer
	if err := Corridor(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "green-wave retiming") {
		t.Fatalf("corridor output incomplete")
	}
}

func TestFig12SpectrogramBadConfig(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig12Spectrogram(&buf, Fig12Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestScalingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	cfg := smallWorld()
	var buf bytes.Buffer
	if err := Scaling(&buf, cfg, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatal("scaling output incomplete")
	}
	if err := Scaling(&buf, cfg, 0); err == nil {
		t.Fatal("zero reps accepted")
	}
}
