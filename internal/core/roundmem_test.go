package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"taxilight/internal/dsp"
	"taxilight/internal/mapmatch"
)

func TestObsIsCompact(t *testing.T) {
	if sz := unsafe.Sizeof(obs{}); sz > 64 {
		t.Fatalf("obs is %d bytes, want <= 64", sz)
	}
	if sz := unsafe.Sizeof(mapmatch.Matched{}); sz > 88 {
		t.Fatalf("mapmatch.Matched is %d bytes, want <= 88: it is what every dispatched batch is made of", sz)
	}
}

// TestSteadyRoundAllocs holds a warm, dense round on a 40-approach engine
// to an object and byte budget. A round that copies its window, or
// rebuilds its stop index from fresh maps, costs megabytes here (40
// approaches x 600 in-window records); one that sorts through reflection
// or rescans its monitors' series costs ten objects a key. What a warm
// round does allocate — about 40 objects and 60 KB at the time of writing —
// is the growth of key buffers, monitor series and history slots and the
// list of published keys; the budget leaves room for that and for nothing
// per key.
func TestSteadyRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so identification rebuilds its scratch at random")
	}
	// A collection would empty the scratch pool mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const nKeys = 40
	const warm, measured = 8, 5
	cfg := DefaultRealtimeConfig()
	cfg.RoundWorkers = 1 // no goroutine or channel noise in the count
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nKeys; i++ {
		eng.Ingest(benchRecords(i, 0, 1800))
	}
	if _, err := eng.Advance(1800); err != nil {
		t.Fatal(err)
	}
	tm := 1800.0
	// Every round's input is made before the measured section.
	feed := make([][][]mapmatch.Matched, warm+measured+1)
	for r := range feed {
		feed[r] = make([][]mapmatch.Matched, nKeys)
		at := tm + 300*float64(r)
		for j := range feed[r] {
			feed[r][j] = benchRecords(j, at, at+300)
		}
	}
	next := 0
	var lastStats RoundStats
	eng.SetRoundObserver(func(st RoundStats) { lastStats = st })
	round := func() {
		for _, batch := range feed[next] {
			eng.Ingest(batch)
		}
		next++
		tm += 300
		if _, err := eng.Advance(tm); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < warm; r++ {
		round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(measured-1, round) // runs the round measured times
	runtime.ReadMemStats(&after)
	bytesPerRound := float64(after.TotalAlloc-before.TotalAlloc) / measured

	if lastStats.Recomputed != nKeys {
		t.Fatalf("measured round recomputed %d keys, want a dense %d", lastStats.Recomputed, nKeys)
	}
	t.Logf("steady dense round: %.0f objects, %.0f bytes", objects, bytesPerRound)
	if objects > 120 {
		t.Errorf("steady round allocates %.0f objects, budget 120", objects)
	}
	if bytesPerRound > 128<<10 {
		t.Errorf("steady round allocates %.0f bytes, budget %d", bytesPerRound, 128<<10)
	}
}

// TestIdentifyOneAllocs: on a warm scratch, identifying a key that gets
// served — cycle, quality, red, fold, refinement — allocates nothing, and
// neither does rebuilding the stop index over the same view. What a round
// allocates per key is then only what it publishes.
func TestIdentifyOneAllocs(t *testing.T) {
	const nKeys = 6
	part := mapmatch.Partition{}
	for i := 0; i < nKeys; i++ {
		part[benchApproachKey(i)] = benchRecords(i, 0, 1800)
	}
	var rm roundMem
	rm.load(part)
	cfg := DefaultPipelineConfig()
	sc := &identifyScratch{plans: map[int]*dsp.FFTPlan{}}
	identifyAll := func() {
		for i := 0; i < nKeys; i++ {
			k := benchApproachKey(i)
			if res := identifyOne(rm.view, &rm.index, k, 0, 1800, cfg, sc); res.Err != nil {
				t.Fatalf("%v is not served: %v", k, res.Err)
			}
		}
	}
	rm.index.build(rm.view, cfg.Stops)
	identifyAll()
	if allocs := testing.AllocsPerRun(5, identifyAll); allocs != 0 {
		t.Errorf("identifying %d served keys on a warm scratch allocates %.0f objects, want 0", nKeys, allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { rm.index.build(rm.view, cfg.Stops) }); allocs != 0 {
		t.Errorf("rebuilding a warm stop index allocates %.0f objects, want 0", allocs)
	}
}

// TestPlateInterningBounded: a hostile feed mints plates. 200 k distinct
// ones pass through Ingest and a round. While the window slides off them
// the table never holds more dead plates than live ones; once the next
// window starts past the last record, the plates, the buffers and the
// round's working memory sized by the burst must all be gone.
func TestPlateInterningBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 200k-record burst")
	}
	const nKeys = 40
	const nPlates = 200_000
	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	cfg := DefaultRealtimeConfig()
	cfg.Faults.MaxBufferPerKey = 0 // the cap must not be what bounds the test
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline := heap()

	batch := make([]mapmatch.Matched, 0, 1000)
	for p := 0; p < nPlates; p++ {
		k := benchApproachKey(p % nKeys)
		batch = append(batch, mapmatch.Matched{
			Plate: fmt.Sprintf("MINT-%06d", p), SpeedKMH: 20,
			Light:    k.Light,
			Approach: k.Approach,
			T:        1800 * float64(p) / nPlates,
		})
		if len(batch) == cap(batch) {
			eng.Ingest(batch)
			batch = batch[:0]
		}
	}
	batch = nil
	if _, err := eng.Advance(1800); err != nil { // a round with every plate in view
		t.Fatal(err)
	}
	burst := heap()
	if n := len(eng.plates.byName); n != nPlates {
		t.Fatalf("%d plates interned, want %d", n, nPlates)
	}
	if burst-baseline < 10 {
		t.Fatalf("burst holds only %.1f MB over baseline; the test measures nothing", burst-baseline)
	}

	// Rounds up to 2700 leave the next window starting at 1200: two
	// thirds of the burst is out of reach.
	if _, err := eng.Advance(2700); err != nil {
		t.Fatal(err)
	}
	live := eng.plates.live
	if rep := eng.Health(); live != rep.BufferedRecords || live < nPlates/4 || live > nPlates/2 {
		t.Fatalf("%d live plates for %d buffered records of %d", live, rep.BufferedRecords, nPlates)
	}
	if n := len(eng.plates.byName); n > 2*live {
		t.Fatalf("table holds %d plates for %d live ones, want at most twice as many", n, live)
	}

	if _, err := eng.Advance(1800 + cfg.Window); err != nil {
		t.Fatal(err)
	}
	if rep := eng.Health(); rep.BufferedRecords != 0 {
		t.Fatalf("%d records still buffered with the next window past them all", rep.BufferedRecords)
	}
	if n := len(eng.plates.byName); n != 0 {
		t.Fatalf("%d plates still interned with nothing buffered", n)
	}
	after := heap()
	t.Logf("heap: baseline %.1f MB, burst %.1f MB, after trim %.1f MB", baseline, burst, after)
	if after-baseline > 4 {
		t.Errorf("heap %.1f MB over baseline after the burst was trimmed, want <= 4 MB", after-baseline)
	}
	runtime.KeepAlive(eng)
}
