package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		used float64
	}{
		{n: 5072, want: 99, used: 99},
		{n: 1000, want: 99, used: 99}, // exactly ten beyond
		{n: 999, want: 99, used: 95},
		{n: 200, want: 99, used: 95},
		{n: 199, want: 99, used: 90},
		{n: 40, want: 99, used: 75},
		{n: 39, want: 99, used: 50},
		{n: 3, want: 99, used: 50},
		{n: 100000, want: 99, used: 99}, // never above what was asked for
		{n: 100000, want: 50, used: 50},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n, c.want); got != c.used {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.used)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	v, used := tail(xs, 99)
	if used != 95 || math.Abs(v-190.05) > 1e-9 {
		t.Errorf("tail of 1..200 at p99 = %g at p%g, want 190.05 at p95", v, used)
	}
}

func TestQuartileSpreadMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11}
	want := (31.0 - 3.5) / 13.5
	if got := quartileSpread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// fakeTape is five lines, two of them in the same stream second.
func fakeTape() *tape {
	return &tape{
		T:   []float64{10, 12, 12, 15, 30},
		Off: []int64{0, 100, 200, 300, replayChunk + 50, replayChunk + 150},
	}
}

func TestScheduleAndTrigger(t *testing.T) {
	tp := fakeTape()
	for _, c := range []struct {
		ts   float64
		want int
	}{{0, 0}, {10, 0}, {10.5, 1}, {12, 1}, {12.1, 3}, {30, 4}, {30.1, 5}} {
		if got := tp.trigger(c.ts); got != c.want {
			t.Errorf("trigger(%g) = %d, want %d", c.ts, got, c.want)
		}
	}
	if got := tp.limit(5); got != 4 {
		t.Errorf("limit(5 s) = %d lines, want 4 (T <= 15)", got)
	}
	if got := tp.limit(0); got != 5 {
		t.Errorf("limit(0) = %d, want the whole tape", got)
	}

	pacedSched := schedule{tp: tp, start: 1000, compress: 600}
	if got := pacedSched.due(0); got != 1000 {
		t.Errorf("paced due(0) = %d, want the start", got)
	}
	streamSeconds := 20.0 // line 4 is that long after line 0
	if got, want := pacedSched.due(4), int64(1000)+int64(streamSeconds/600*float64(time.Second)); got != want {
		t.Errorf("paced due(4) = %d, want %d", got, want)
	}
	if pacedSched.due(1) != pacedSched.due(2) {
		t.Error("two lines of one stream second must be due together")
	}

	// A replayed line was due when the write carrying its last byte began:
	// line 3 ends in the second chunk, lines 0..2 in the first.
	replaySched := schedule{tp: tp, start: 1000, chunkAt: []int64{1000, 5000}}
	for i, want := range []int64{1000, 1000, 1000, 5000, 5000} {
		if got := replaySched.due(i); got != want {
			t.Errorf("replay due(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestParseEventTime(t *testing.T) {
	cases := []struct {
		line string
		t    float64
		ok   bool
	}{
		{`data: {"light":7,"approach":"NS","t_s":4854.14404296875,"state":"red","countdown_s":3}` + "\n", 4854.14404296875, true},
		{`data: {"light":7,"approach":"NS","t_s":300}` + "\n", 300, true},
		{"id: 00000000deadbeef\n", 0, false},
		{"event: estimate\n", 0, false},
		{": hb\n", 0, false},
		{"\n", 0, false},
		{`data: {"light":7}` + "\n", 0, false},
		{`data: {"t_s":oops,"x":1}` + "\n", 0, false},
	}
	for _, c := range cases {
		got, ok := parseEventTime([]byte(c.line))
		if ok != c.ok || got != c.t {
			t.Errorf("parseEventTime(%q) = %v, %v; want %v, %v", c.line, got, ok, c.t, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // sticks out of the parent
		{ID: 5, Parent: 3, Name: "grandchild", Start: 35, End: 45},
		{ID: 6, Parent: 1, Name: "d", Start: 35, End: 38}, // inside what a and b already cover
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		1: 100 - (50 + 10), // [10,60] and [90,100] are covered
		2: 30,
		3: 30 - 10,
		4: 40,
		5: 10,
		6: 3,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if got := byName["parent"]; math.Abs(got-40e-9) > 1e-15 {
		t.Errorf("selfByName[parent] = %g s, want 40 ns", got)
	}
}

func TestParseMetrics(t *testing.T) {
	page := "# TYPE lightd_ingest_records_total counter\n" +
		"lightd_ingest_records_total 1234\n" +
		"lightd_scanner_skipped_total{class=\"fields\"} 2\n" +
		"lightd_scanner_skipped_total{class=\"time\"} 1\n" +
		"lightd_watch_events_total{outcome=\"enqueued\"} 77\n"
	c := parseMetrics(page)
	if c["lightd_ingest_records_total"] != 1234 || c[`lightd_watch_events_total{outcome="enqueued"}`] != 77 {
		t.Errorf("parsed %v", c)
	}
	if got := c.sumPrefix("lightd_scanner_skipped_total"); got != 3 {
		t.Errorf("skipped over all classes = %g, want 3", got)
	}
}

// TestLedgerMatchesBenchmarkJSON holds the tables in metrics.go and the
// contract at the repository root to each other.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the module: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// Smoke tapes: fifteen stream-minutes of a small city and a small
// arterial grid.
var (
	smokeCity     = tapeSpec{Name: "city", Rows: 4, Spacing: 800, Taxis: 800, Horizon: 900}
	smokeArterial = tapeSpec{Name: "arterial", Rows: 3, Spacing: 6000, Taxis: 1000, Horizon: 900}
)

// TestMain lets the test binary stand in for the harness binary when a
// lap starts its load generator.
func TestMain(m *testing.M) {
	if os.Getenv(clientEnv) != "" {
		os.Exit(loadgenMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func smokeOpts(t *testing.T, seconds float64, trace bool) runOpts {
	return runOpts{Seed: 7, Seconds: seconds, Trace: trace, Setups: 1, WorkDir: t.TempDir()}
}

// smokeRun runs one workload and reports every failed check. A void run
// (a generator that could not keep its schedule) is tried again, twice,
// and with the race detector on, where the program runs several times
// slower against the same wall-clock schedule, it is only logged.
func smokeRun(t *testing.T, wl workload, b *built, o runOpts, rec *recorder) *report {
	t.Helper()
	rep, err := runWorkload(wl, b, o, rec)
	var void errInvalidRun
	for try := 0; try < 2 && errors.As(err, &void); try++ {
		t.Logf("%s: %v; trying again", wl.Name, err)
		rep, err = runWorkload(wl, b, o, rec)
	}
	if raceEnabled && errors.As(err, &void) {
		t.Logf("%s: %v (tolerated under -race)", wl.Name, err)
		return nil
	}
	if err != nil {
		t.Fatalf("%s: %v", wl.Name, err)
	}
	for _, c := range rep.checks.failed() {
		t.Errorf("%s: check %s failed: %s", wl.Name, c.Name, c.Detail)
	}
	for _, f := range rep.findings {
		t.Logf("%s: finding: %s", wl.Name, f)
	}
	return rep
}

// TestSmokeAllWorkloads runs the four workloads end to end on the smoke
// tapes: every metric of the ledger must come out and every check pass.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	o := smokeOpts(t, 0, false)
	city, err := setUp(smokeCity, o)
	if err != nil {
		t.Fatal(err)
	}
	arterial, err := setUp(smokeArterial, o)
	if err != nil {
		t.Fatal(err)
	}
	var reps []*report
	for _, wl := range workloads {
		b := city
		if wl.Tape == &arterialTape {
			b = arterial
		}
		o.Seconds = 0.2 // two replay laps
		if wl.Paced {
			o.Seconds = smokeCity.Horizon / compress
		}
		rep := smokeRun(t, wl, b, o, &recorder{})
		if rep == nil {
			continue
		}
		if len(rep.checks) == 0 || rep.attempted == 0 {
			t.Errorf("%s: the gate did not run (%d checks, %d attempted)", wl.Name, len(rep.checks), rep.attempted)
		}
		for _, defs := range [][]metricDef{endToEnd, reportedOnly} {
			if _, err := resultLine(defs, rep.e2e, rep.correct(), rep.attempted, rep.failed); err != nil {
				t.Errorf("%s: %v", wl.Name, err)
			}
		}
		reps = append(reps, rep)
	}
	if f := sameAccuracy(reps); f != "" {
		t.Logf("finding: %s", f)
	}
	if d := time.Since(start); !raceEnabled && d > 10*time.Second {
		t.Errorf("smoke took %v, want at most 10 s", d)
	}
}

// TestSmokeTraced runs the traced variant on one closed and one open
// workload and expects every per-layer row and a span file.
func TestSmokeTraced(t *testing.T) {
	o := smokeOpts(t, 0, true)
	city, err := setUp(smokeCity, o)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	for _, name := range []string{"replay_city", "paced_watch"} {
		wl, _ := findWorkload(name)
		o.Seconds = 0.2
		if wl.Paced {
			o.Seconds = smokeCity.Horizon / compress
		}
		rep := smokeRun(t, wl, city, o, rec)
		if rep == nil {
			continue
		}
		if _, err := resultLine(perLayer, rep.layers, rep.correct(), rep.attempted, rep.failed); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(rep.shares) == 0 {
			t.Errorf("%s: no CPU share table", name)
		}
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(rec.spans) || len(lines) == 0 {
		t.Fatalf("%d lines for %d spans", len(lines), len(rec.spans))
	}
	names := map[string]bool{}
	for _, l := range lines {
		var s span
		if err := json.Unmarshal([]byte(l), &s); err != nil {
			t.Fatalf("span line %q: %v", l, err)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"fresh", "server.arrival_to_round_end", "core.round", "pubsub.round_end_to_client",
		"staged.block", "trace.scan", "mapmatch.match", "server.dispatch", "core.cycle", "dsp.fft", "routesvc.plan", "server/v1/state"} {
		if !names[want] {
			t.Errorf("no %s span recorded", want)
		}
	}
}

// TestGateCatchesCorruptedLine feeds a tape with one line the scanner
// must skip: the lap itself completes, and the gate says what is wrong.
func TestGateCatchesCorruptedLine(t *testing.T) {
	o := smokeOpts(t, 0.1, false)
	b, err := setUp(smokeCity, o)
	if err != nil {
		t.Fatal(err)
	}
	tp := b.tp
	f, err := os.OpenFile(tp.Path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := tp.records() / 2
	junk := []byte(strings.Repeat("x", int(tp.Off[victim+1]-tp.Off[victim])-1))
	if _, err := f.WriteAt(junk, tp.Off[victim]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wl, _ := findWorkload("replay_city")
	rep, err := runWorkload(wl, b, o, &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.correct() {
		t.Fatal("the gate passed a tape with a corrupted line")
	}
	failed := map[string]bool{}
	for _, c := range rep.checks.failed() {
		failed[strings.SplitN(c.Name, "[", 2)[0]] = true
	}
	for _, want := range []string{"lines_admitted", "nothing_skipped_by_scanner"} {
		if !failed[want] {
			t.Errorf("check %s did not fail; failed: %v", want, failed)
		}
	}
	if rep.failed == 0 {
		t.Error("no failed operation counted")
	}
}
