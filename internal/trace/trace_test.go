package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"taxilight/internal/roadnet"
	"taxilight/internal/trafficsim"
)

func sampleRecord() Record {
	return Record{
		Plate:    "B12345",
		Lon:      114.125001,
		Lat:      22.547002,
		Time:     time.Date(2014, 12, 5, 15, 22, 0, 0, time.UTC),
		DeviceID: 900001,
		SpeedKMH: 42.5,
		Heading:  91.0,
		GPSOK:    true,
		SIM:      "13800001234",
		Occupied: true,
		Color:    "yellow",
	}
}

func TestRecordCSVRoundTrip(t *testing.T) {
	r := sampleRecord()
	line := r.MarshalCSV()
	var back Record
	if err := back.UnmarshalCSV(line); err != nil {
		t.Fatal(err)
	}
	if back.Plate != r.Plate || back.DeviceID != r.DeviceID || back.SIM != r.SIM ||
		back.Color != r.Color || back.Occupied != r.Occupied || back.GPSOK != r.GPSOK {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", r, back)
	}
	if !back.Time.Equal(r.Time) {
		t.Fatalf("time mismatch: %v vs %v", back.Time, r.Time)
	}
	// Coordinates survive at microdegree precision.
	if math.Abs(back.Lon-r.Lon) > 1e-6 || math.Abs(back.Lat-r.Lat) > 1e-6 {
		t.Fatalf("coordinate mismatch: %v,%v vs %v,%v", back.Lat, back.Lon, r.Lat, r.Lon)
	}
	if math.Abs(back.SpeedKMH-r.SpeedKMH) > 0.05 || math.Abs(back.Heading-r.Heading) > 0.05 {
		t.Fatalf("speed/heading mismatch")
	}
}

func TestRecordCSVFieldCount(t *testing.T) {
	line := sampleRecord().MarshalCSV()
	if n := len(strings.Split(line, ",")); n != 12 {
		t.Fatalf("CSV has %d fields, want 12 (Table I)", n)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := []string{
		"",
		"a,b,c",
		"B1,xx,22547000,2014-12-05 15:22:00,1,42.5,91.0,1,0,s,1,yellow",
		"B1,114125000,yy,2014-12-05 15:22:00,1,42.5,91.0,1,0,s,1,yellow",
		"B1,114125000,22547000,notatime,1,42.5,91.0,1,0,s,1,yellow",
		"B1,114125000,22547000,2014-12-05 15:22:00,x,42.5,91.0,1,0,s,1,yellow",
		"B1,114125000,22547000,2014-12-05 15:22:00,1,fast,91.0,1,0,s,1,yellow",
		"B1,114125000,22547000,2014-12-05 15:22:00,1,42.5,east,1,0,s,1,yellow",
		"B1,114125000,22547000,2014-12-05 15:22:00,1,42.5,91.0,2,0,s,1,yellow",
		"B1,114125000,22547000,2014-12-05 15:22:00,1,42.5,91.0,1,9,s,1,yellow",
		"B1,114125000,22547000,2014-12-05 15:22:00,1,42.5,91.0,1,0,s,x,yellow",
	}
	for i, line := range bad {
		var r Record
		if err := r.UnmarshalCSV(line); err == nil {
			t.Errorf("bad line %d accepted: %q", i, line)
		}
	}
}

func TestRecordValidate(t *testing.T) {
	good := sampleRecord()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Record){
		func(r *Record) { r.Plate = "" },
		func(r *Record) { r.Lat = 95 },
		func(r *Record) { r.Lon = -190 },
		func(r *Record) { r.SpeedKMH = -1 },
		func(r *Record) { r.Heading = 360 },
		func(r *Record) { r.Time = time.Time{} },
	}
	for i, mut := range mutations {
		r := sampleRecord()
		mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestWriteReadCSV(t *testing.T) {
	recs := []Record{sampleRecord(), sampleRecord()}
	recs[1].Plate = "B99999"
	recs[1].Occupied = false
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Plate != "B99999" || back[1].Occupied {
		t.Fatalf("read back: %+v", back)
	}
}

func TestReadCSVSkipsBlankReportsBadLine(t *testing.T) {
	input := sampleRecord().MarshalCSV() + "\n\n" + "garbage line\n"
	_, err := ReadCSV(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line-3 failure", err)
	}
	ok, err := ReadCSV(strings.NewReader(sampleRecord().MarshalCSV() + "\n\n"))
	if err != nil || len(ok) != 1 {
		t.Fatalf("blank-line handling: %v, %d", err, len(ok))
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(dev int64, speed float64, occ bool) bool {
		r := sampleRecord()
		r.DeviceID = dev
		r.SpeedKMH = math.Abs(math.Mod(speed, 120))
		r.Occupied = occ
		var back Record
		if err := back.UnmarshalCSV(r.MarshalCSV()); err != nil {
			return false
		}
		return back.DeviceID == dev && back.Occupied == occ &&
			math.Abs(back.SpeedKMH-r.SpeedKMH) <= 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- generator tests ---

func genFixture(t testing.TB, taxis int, mutate func(*GenConfig)) (*Generator, *trafficsim.Simulator) {
	t.Helper()
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = 4, 4
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := trafficsim.DefaultConfig(net)
	scfg.NumTaxis = taxis
	sim, err := trafficsim.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGenConfig(sim, net.Projection())
	cfg.Activity = nil // deterministic volume unless the test wants it
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, sim
}

func TestGeneratorEmitsValidRecords(t *testing.T) {
	g, _ := genFixture(t, 50, nil)
	recs := g.Collect(600)
	if len(recs) < 500 {
		t.Fatalf("only %d records in 10 min from 50 taxis", len(recs))
	}
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		if i > 0 && recs[i].Time.Before(recs[i-1].Time) {
			t.Fatalf("records not chronological at %d", i)
		}
	}
}

func TestGeneratorIntervalsRespectMixture(t *testing.T) {
	g, _ := genFixture(t, 400, nil)
	counts := map[float64]int{}
	for i := 0; i < 400; i++ {
		counts[g.Interval(i)]++
	}
	// 15 s is the modal interval in the default mixture.
	if counts[15] < counts[5] || counts[15] < counts[60] {
		t.Fatalf("mixture off: %v", counts)
	}
	for iv := range counts {
		found := false
		for _, ic := range DefaultIntervals() {
			if ic.Seconds == iv {
				found = true
			}
		}
		if !found {
			t.Fatalf("unexpected interval %v", iv)
		}
	}
}

func TestGeneratorPerTaxiCadence(t *testing.T) {
	g, _ := genFixture(t, 30, func(c *GenConfig) { c.DropProb = 0 })
	recs := g.Collect(1200)
	byPlate := map[string][]Record{}
	for _, r := range recs {
		byPlate[r.Plate] = append(byPlate[r.Plate], r)
	}
	for plate, rs := range byPlate {
		if len(rs) < 3 {
			continue
		}
		// Consecutive gaps should be an integer multiple of some base
		// interval from the mixture (equal to it with no drops).
		base := rs[1].Time.Sub(rs[0].Time).Seconds()
		legal := false
		for _, ic := range DefaultIntervals() {
			if math.Abs(base-ic.Seconds) < 1.5 {
				legal = true
			}
		}
		if !legal {
			t.Fatalf("taxi %s cadence %v not in mixture", plate, base)
		}
	}
}

func TestGeneratorDropReducesVolume(t *testing.T) {
	gFull, _ := genFixture(t, 80, func(c *GenConfig) { c.DropProb = 0 })
	full := len(gFull.Collect(900))
	gDrop, _ := genFixture(t, 80, func(c *GenConfig) { c.DropProb = 0.5 })
	dropped := len(gDrop.Collect(900))
	if dropped >= full*3/4 {
		t.Fatalf("50%% drop left %d of %d records", dropped, full)
	}
}

func TestGeneratorActivityModulatesVolume(t *testing.T) {
	night := func(float64) float64 { return 0.1 }
	gQuiet, _ := genFixture(t, 80, func(c *GenConfig) { c.Activity = night })
	quiet := len(gQuiet.Collect(900))
	gBusy, _ := genFixture(t, 80, nil)
	busy := len(gBusy.Collect(900))
	if quiet*3 >= busy {
		t.Fatalf("activity 0.1 produced %d vs always-on %d", quiet, busy)
	}
}

func TestGeneratorValidation(t *testing.T) {
	gcfg := roadnet.DefaultGridConfig()
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := trafficsim.New(trafficsim.DefaultConfig(net))
	if err != nil {
		t.Fatal(err)
	}
	mutations := []func(*GenConfig){
		func(c *GenConfig) { c.Sim = nil },
		func(c *GenConfig) { c.Proj = nil },
		func(c *GenConfig) { c.NoiseSigma = -1 },
		func(c *GenConfig) { c.HeavySigma = -1 },
		func(c *GenConfig) { c.HeavyProb = 2 },
		func(c *GenConfig) { c.DropProb = -0.5 },
		func(c *GenConfig) { c.Epoch = time.Time{} },
		func(c *GenConfig) { c.Intervals = []IntervalChoice{{Seconds: -5, Weight: 1}} },
		func(c *GenConfig) { c.Intervals = []IntervalChoice{{Seconds: 10, Weight: 0}} },
	}
	for i, mut := range mutations {
		cfg := DefaultGenConfig(sim, net.Projection())
		mut(&cfg)
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSummarizeFig2Shape(t *testing.T) {
	g, _ := genFixture(t, 150, func(c *GenConfig) { c.DropProb = 0.03 })
	recs := g.Collect(3600)
	s := Summarize(recs, 600)
	if s.Total != len(recs) {
		t.Fatalf("Total = %d", s.Total)
	}
	if len(s.SlotCounts) < 5 {
		t.Fatalf("slots = %d", len(s.SlotCounts))
	}
	sum := 0
	for _, c := range s.SlotCounts {
		sum += c
	}
	if sum != s.Total {
		t.Fatalf("slot counts %d != total %d", sum, s.Total)
	}
	// Fig. 2(b): mean interval near the mixture mean (~21 s); drops
	// stretch it slightly.
	if s.MeanInterval < 15 || s.MeanInterval > 35 {
		t.Fatalf("mean interval = %v", s.MeanInterval)
	}
	// Fig. 2(c): a meaningful share of pairs are stationary.
	if s.StationaryShare < 0.05 || s.StationaryShare > 0.95 {
		t.Fatalf("stationary share = %v", s.StationaryShare)
	}
	if s.MeanMovingDistance <= StationaryThresholdMeters {
		t.Fatalf("mean moving distance = %v", s.MeanMovingDistance)
	}
	// Fig. 2(d): speed differences roughly zero-mean.
	if math.Abs(s.SpeedDiffFit.Mu) > 5 {
		t.Fatalf("speed diff mu = %v", s.SpeedDiffFit.Mu)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, 600)
	if s.Total != 0 || s.SlotCounts != nil {
		t.Fatalf("empty summary: %+v", s)
	}
}

func BenchmarkGeneratorCollect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, _ := genFixture(b, 100, nil)
		b.StartTimer()
		g.Collect(300)
	}
}

func BenchmarkSummarize(b *testing.B) {
	g, _ := genFixture(b, 150, nil)
	recs := g.Collect(1800)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Summarize(recs, 600)
	}
}

func TestStreamMatchesCollect(t *testing.T) {
	// Two identically-seeded generators: Stream must deliver exactly the
	// records Collect returns, in order.
	gA, _ := genFixture(t, 40, nil)
	collected := gA.Collect(600)
	gB, _ := genFixture(t, 40, nil)
	var streamed []Record
	err := gB.Stream(600, func(r Record) error {
		streamed = append(streamed, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(collected) {
		t.Fatalf("streamed %d vs collected %d", len(streamed), len(collected))
	}
	for i := range streamed {
		if streamed[i] != collected[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestStreamStopsOnError(t *testing.T) {
	g, _ := genFixture(t, 40, nil)
	sentinel := fmt.Errorf("stop now")
	n := 0
	err := g.Stream(600, func(Record) error {
		n++
		if n == 10 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n != 10 {
		t.Fatalf("callback ran %d times, want 10", n)
	}
}

func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// Stream's two stages meet only at the ring, so which of them waits for
// the other must not show in the trace or in where the simulator is left.
func TestStreamConsumerPaceDoesNotMatter(t *testing.T) {
	ref, _ := genFixture(t, 120, nil)
	want := ref.Collect(600)

	// A consumer slower than the producer: the ring stays full.
	slow, slowSim := genFixture(t, 120, nil)
	var got []Record
	if err := slow.Stream(600, func(r Record) error {
		if len(got)%32 == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "slow consumer", got, want)
	if slowSim.Now() != 600 {
		t.Fatalf("slow consumer left the simulator at %v, want 600", slowSim.Now())
	}

	// A consumer that does nothing: the ring stays empty. What it was
	// handed is judged by where the next call picks up.
	idle, idleSim := genFixture(t, 120, nil)
	n := 0
	if err := idle.Stream(300, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if idleSim.Now() != 300 {
		t.Fatalf("idle consumer left the simulator at %v, want 300", idleSim.Now())
	}
	if n == 0 || n >= len(want) || idle.SimSeconds(want[n-1].Time) > 300 || idle.SimSeconds(want[n].Time) <= 300 {
		t.Fatalf("idle consumer was handed %d records, which is not the trace up to second 300", n)
	}
	sameRecords(t, "after an idle consumer", idle.Collect(600), want[n:])
}

func TestCollectInChunksEqualsOneCollect(t *testing.T) {
	whole, _ := genFixture(t, 60, nil)
	want := whole.Collect(600)
	chunked, _ := genFixture(t, 60, nil)
	got := chunked.Collect(300)
	if len(got) == 0 || len(got) >= len(want) {
		t.Fatalf("first chunk has %d of %d records", len(got), len(want))
	}
	sameRecords(t, "Collect(300) then Collect(600)", append(got, chunked.Collect(600)...), want)
}

// producerRunning reports whether any goroutine is inside
// (*Generator).produce, giving one that is on its way out a moment to go.
func producerRunning() bool {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "(*Generator).produce") {
			return false
		}
		if time.Now().After(deadline) {
			return true
		}
	}
}

// When fn fails, Stream stops the producer and waits for it: fn is not
// called again, no goroutine is left behind, and the simulator has run at
// most the ring's worth of reporting seconds past the failing record.
func TestStreamErrorStopsAndJoinsProducer(t *testing.T) {
	ref, _ := genFixture(t, 200, nil)
	want := ref.Collect(600)
	const failAt = 1000
	if len(want) < 2*failAt {
		t.Fatalf("fixture too small: %d records", len(want))
	}

	g, sim := genFixture(t, 200, nil)
	sentinel := fmt.Errorf("stop now")
	n := 0
	err := g.Stream(600, func(Record) error {
		if n++; n == failAt {
			return sentinel
		}
		return nil
	})
	if err != sentinel || n != failAt {
		t.Fatalf("err %v after %d callbacks, want the sentinel after %d", err, n, failAt)
	}
	if producerRunning() {
		t.Fatal("the producer outlived Stream")
	}
	failed := g.SimSeconds(want[failAt-1].Time)
	if sim.Now() < failed || sim.Now() >= 600 {
		t.Fatalf("simulator at %v; the failing record was rendered at %v", sim.Now(), failed)
	}
	ahead, last := 0, failed
	for _, r := range want[failAt:] {
		if s := g.SimSeconds(r.Time); s > last && s <= sim.Now() {
			ahead, last = ahead+1, s
		}
	}
	// The failing batch is never handed back, so one slot of the ring is
	// out of the producer's reach.
	if ahead > streamRing-1 {
		t.Fatalf("simulator ran %d reporting seconds past the failing record, ring depth %d", ahead, streamRing)
	}

	// A panic in fn unwinds through Stream and takes the same way out.
	g, _ = genFixture(t, 200, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("fn's panic did not reach the caller")
			}
		}()
		_ = g.Stream(600, func(Record) error { panic("fn gave up") })
	}()
	if producerRunning() {
		t.Fatal("the producer outlived a panic in fn")
	}
}

// ReadCSV parses all records from r with a strict Scanner, skipping blank
// lines; a malformed line aborts with a positional error.
func ReadCSV(r io.Reader) ([]Record, error) {
	var out []Record
	sc := NewScanner(r)
	for sc.Scan() {
		out = append(out, sc.Record())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
