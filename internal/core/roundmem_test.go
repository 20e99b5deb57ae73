package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"taxilight/internal/dsp"
	"taxilight/internal/mapmatch"
)

// TestObsIsCompact: a buffered observation is 48 bytes, a page of them
// 6 KB — one size class of the allocator — and neither holds anything the
// collector has to follow, at any depth.
func TestObsIsCompact(t *testing.T) {
	if sz := unsafe.Sizeof(obs{}); sz != 48 {
		t.Fatalf("obs is %d bytes, want 48", sz)
	}
	if sz := unsafe.Sizeof(obsPage{}); sz != 6<<10 {
		t.Fatalf("obsPage is %d bytes, want 6 KB", sz)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint,
			reflect.Float32, reflect.Float64:
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		default:
			t.Errorf("%s is a %v: obs and its pages must be pointer-free", path, ty.Kind())
		}
	}
	walk("obs", reflect.TypeOf(obs{}))
	walk("obsPage", reflect.TypeOf(obsPage{}))
	if sz := unsafe.Sizeof(mapmatch.Matched{}); sz > 88 {
		t.Fatalf("mapmatch.Matched is %d bytes, want <= 88: it is what every dispatched batch is made of", sz)
	}
}

// TestSteadyRoundAllocs holds a warm, dense round on a 40-approach engine
// to an object and byte budget. A round that copies its window, or
// rebuilds its stop index from fresh maps, costs megabytes here (40
// approaches x 600 in-window records); one that sorts through reflection
// or rescans its monitors' series costs ten objects a key, and one that
// regrows history slots and monitor series round after round a few. What
// a warm round does allocate — 17 objects and 2.4 KB at the time of
// writing — is a history slot per key every third round (made once, with
// room for its day) and the list of published keys; the budget leaves
// room for that and for nothing per key per round. The collector runs as
// it likes: the identify scratch set is not a cache it can empty. Key
// buffers fill pages the trims emptied. A free list held to a quarter of
// the pages in use, not a half, made 40 pages (27 objects and 50 KB a
// round) every few rounds here, because every approach crosses a page
// edge at once.
func TestSteadyRoundAllocs(t *testing.T) {
	const nKeys = 40
	const warm, measured = 8, 5
	cfg := DefaultRealtimeConfig()
	cfg.Pipeline.Workers = 1 // no goroutine or channel noise in the count
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
	if objects > 24 {
		t.Errorf("steady round allocates %.0f objects, budget 24", objects)
	}
	if bytesPerRound > 8<<10 {
		t.Errorf("steady round allocates %.0f bytes, budget %d", bytesPerRound, 8<<10)
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
	rm.index.build(rm.view, rm.names, cfg.Stops)
	identifyAll()
	if allocs := testing.AllocsPerRun(5, identifyAll); allocs != 0 {
		t.Errorf("identifying %d served keys on a warm scratch allocates %.0f objects, want 0", nKeys, allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { rm.index.build(rm.view, rm.names, cfg.Stops) }); allocs != 0 {
		t.Errorf("rebuilding a warm stop index allocates %.0f objects, want 0", allocs)
	}
}

// TestPlateInterningBounded: a hostile feed mints plates. 200 k distinct
// ones pass through Ingest and a round. While the window slides off them
// the table, after a trim, never names more dead plates than live ones,
// every id is either named or on the free list, and a plate minted then
// takes a freed id instead of lengthening the table; once the next window
// starts past the last record, the ids, the buffers and the round's
// working memory sized by the burst must all be gone, and the identify
// scratches, which stay, must hold no more than a window's worth.
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
	set := newScratchSet(runtime.GOMAXPROCS(0)) // this engine's identification, and nothing else's
	useScratchSet(t, set)
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
	if n, ids := len(eng.plates.ids), len(eng.plates.names); n != nPlates || ids != nPlates {
		t.Fatalf("%d plates interned under %d ids, want %d", n, ids, nPlates)
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
	pt := &eng.plates
	if n := len(pt.ids); n > 2*live {
		t.Fatalf("table names %d plates for %d live ones, want at most twice as many", n, live)
	}
	if len(pt.names) != len(pt.refs) || len(pt.names) > nPlates || len(pt.names) != len(pt.ids)+len(pt.free) {
		t.Fatalf("%d ids (%d counted) for %d named plates and %d freed ones", len(pt.names), len(pt.refs), len(pt.ids), len(pt.free))
	}
	if len(pt.free) == 0 {
		t.Fatal("two thirds of the burst left the window and no id was freed")
	}
	lowest := pt.free[len(pt.free)-1]
	eng.Ingest([]mapmatch.Matched{{Plate: "MINT-AGAIN", SpeedKMH: 20, Light: benchApproachKey(0).Light, Approach: benchApproachKey(0).Approach, T: 1700}})
	if got := pt.ids["MINT-AGAIN"]; got != lowest || pt.names[got] != "MINT-AGAIN" || len(pt.names) > nPlates {
		t.Fatalf("a plate minted after the trim got id %d of %d, want the freed id %d", got, len(pt.names), lowest)
	}

	if _, err := eng.Advance(1800 + cfg.Window); err != nil {
		t.Fatal(err)
	}
	if rep := eng.Health(); rep.BufferedRecords != 0 {
		t.Fatalf("%d records still buffered with the next window past them all", rep.BufferedRecords)
	}
	if len(pt.ids) != 0 || len(pt.names) != 0 || len(pt.refs) != 0 || cap(pt.names) > 1024 || cap(pt.free) > 1024 {
		t.Fatalf("with nothing buffered the table still holds %d names, %d ids (cap %d) and a free list of cap %d",
			len(pt.ids), len(pt.names), cap(pt.names), cap(pt.free))
	}
	// The identify scratches outlive the burst by design; what they hold
	// may not outgrow a window's grid.
	if n := set.count(); n > cap(set.idle) {
		t.Fatalf("the scratch set made %d scratches for %d cores", n, cap(set.idle))
	}
	for i, sc := range set.idleScratches() {
		if name, most := largestHeld(sc); oversized(most, int(cfg.Window)+1) {
			t.Errorf("scratch %d holds %s with room for %d elements after the burst", i, name, most)
		}
	}
	after := heap()
	t.Logf("heap: baseline %.1f MB, burst %.1f MB, after trim %.1f MB", baseline, burst, after)
	if after-baseline > 4 {
		t.Errorf("heap %.1f MB over baseline after the burst was trimmed, want <= 4 MB", after-baseline)
	}
	runtime.KeepAlive(eng)
}

// steadyFeed is an engine of nKeys approaches fed benchRecords one
// Interval at a time, as a round at each instant would see them.
type steadyFeed struct {
	t     *testing.T
	eng   *Engine
	nKeys int
	at    float64
}

func newSteadyFeed(t *testing.T, nKeys int) *steadyFeed {
	cfg := DefaultRealtimeConfig()
	cfg.Pipeline.Workers = 1
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &steadyFeed{t: t, eng: eng, nKeys: nKeys}
}

// feed ingests the next Interval of every key's records, plus extra.
func (f *steadyFeed) feed(extra ...mapmatch.Matched) {
	for i := 0; i < f.nKeys; i++ {
		f.eng.Ingest(benchRecords(i, f.at, f.at+f.eng.cfg.Interval))
	}
	f.eng.Ingest(extra)
	f.at += f.eng.cfg.Interval
}

func (f *steadyFeed) advance() {
	if _, err := f.eng.Advance(f.at); err != nil {
		f.t.Fatal(err)
	}
}

// pages returns the pages the engine holds, in buffers and free, and how
// many of them are in buffers.
func (f *steadyFeed) pages() (all map[*obsPage]bool, inUse int) {
	e := f.eng
	e.mu.RLock()
	defer e.mu.RUnlock()
	all = map[*obsPage]bool{}
	for _, a := range e.approaches {
		inUse += len(a.buf.pages)
		for _, p := range a.buf.pages {
			all[p] = true
		}
	}
	for _, p := range e.freePages {
		all[p] = true
	}
	return all, inUse
}

// burst is n records on key 0 over the last second before at, newest
// first: every one out of order.
func burst(n int, at float64) []mapmatch.Matched {
	k := benchApproachKey(0)
	out := make([]mapmatch.Matched, n)
	for i := range out {
		out[i] = mapmatch.Matched{Plate: fmt.Sprintf("BURST-%d", i%100), SpeedKMH: 20, DistToStop: 50,
			Light: k.Light, Approach: k.Approach, T: at - float64(i+1)/float64(n)}
	}
	return out
}

// TestKeyBufferPagesRecycled: an engine fed at a steady rate makes the
// pages it needs while its first Window + Interval fills. From then on
// Ingest fills pages the trims emptied and makes none, for several
// windows. A 20 000-record burst on one key takes pages; once it is
// trimmed away the free list holds at most half the pages in use, and the
// collector has the rest.
func TestKeyBufferPagesRecycled(t *testing.T) {
	f := newSteadyFeed(t, 40)
	settled := f.eng.cfg.Window + f.eng.cfg.Interval
	var known map[*obsPage]bool
	made := func(step string) {
		all, _ := f.pages()
		n := 0
		for p := range all {
			if !known[p] {
				n++
			}
		}
		if n > 0 {
			t.Errorf("%s: %d pages made after the first %v s", step, n, settled)
		}
	}
	for f.at < settled {
		f.feed()
		f.advance()
	}
	known, _ = f.pages()
	for f.at < settled+4*f.eng.cfg.Window {
		f.feed()
		made(fmt.Sprintf("ingest up to %v", f.at))
		f.advance()
		made(fmt.Sprintf("round at %v", f.at))
	}
	steady, inUse := f.pages()
	if rep := f.eng.Health(); rep.BufferedRecords < 40*500 || inUse < 40*4 {
		t.Fatalf("%d records buffered in %d pages: the feed is not dense", rep.BufferedRecords, inUse)
	}

	f.feed(burst(20_000, f.at+f.eng.cfg.Interval)...)
	f.advance()
	peak, _ := f.pages()
	if len(peak) < len(steady)+50 {
		t.Fatalf("the burst took %d pages beside %d: it measures nothing", len(peak)-len(steady), len(steady))
	}
	for i := 0; i < 8; i++ {
		f.feed()
		f.advance()
	}
	all, inUse := f.pages()
	e := f.eng
	if rep := e.Health(); rep.BufferedRecords > 40*800 {
		t.Fatalf("%d records buffered: the burst was not trimmed away", rep.BufferedRecords)
	}
	if free := len(e.freePages); free > inUse/2 || len(all) > len(steady)*3/2 {
		t.Errorf("after the burst: %d free pages for %d in use, %d pages held where the steady feed held %d",
			free, inUse, len(all), len(steady))
	}
}

// TestNormalizeScratchLetGo: normalizing a MaxBufferPerKey key that
// arrived all out of order sizes the engine's merge scratch for 20 000
// records. Once the burst is trimmed away the scratch is not oversized
// for what the buffers still hold: a burst does not pin it for good.
func TestNormalizeScratchLetGo(t *testing.T) {
	f := newSteadyFeed(t, 8)
	for f.at < 1800 {
		f.feed()
		f.advance()
	}
	f.feed(burst(f.eng.cfg.Faults.MaxBufferPerKey, f.at+f.eng.cfg.Interval)...)
	e := f.eng
	if c := cap(e.mergeBuf); c < f.eng.cfg.Faults.MaxBufferPerKey/2 {
		t.Fatalf("the burst's eviction left a merge scratch of %d records: the test measures nothing", c)
	}
	f.advance()
	for i := 0; i < 8; i++ {
		f.feed()
		f.advance()
	}
	longest := 0
	for _, a := range e.approaches {
		longest = max(longest, a.buf.n)
	}
	if longest > 1000 || oversized(cap(e.mergeBuf), longest) {
		t.Errorf("with at most %d records per key buffered, the merge scratch keeps room for %d", longest, cap(e.mergeBuf))
	}
}

// TestStopIndexSpareIsShared: what a stop index needs only while it is
// being built belongs to no engine. Two engines running rounds in turn
// pass one reference array back and forth through the process-wide spare;
// a build that finds the spare taken makes its own set, both builds come
// out right, and of the two sets handed back the larger stays.
func TestStopIndexSpareIsShared(t *testing.T) {
	defer spareStopScratch.Store(spareStopScratch.Swap(nil)) // leave other tests theirs

	const nKeys = 6
	engines := make([]*Engine, 2)
	for e := range engines {
		cfg := DefaultRealtimeConfig()
		cfg.Pipeline.Workers = 1
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nKeys; i++ {
			eng.Ingest(benchRecords(e*nKeys+i, 0, 1800))
		}
		engines[e] = eng
	}
	var arrays []*stopRef
	for r := 0; r < 6; r++ {
		at := 1800 + 300*float64(r)
		for e, eng := range engines {
			if _, err := eng.Advance(at); err != nil {
				t.Fatal(err)
			}
			ws := spareStopScratch.Load()
			if ws == nil || cap(ws.refs) < nKeys*500 {
				t.Fatalf("round %d of engine %d left no reference array of a round's size in the spare: %+v", r, e, ws)
			}
			if r >= 2 { // the windows are full: no round outgrows the last
				arrays = append(arrays, unsafe.SliceData(ws.refs))
			}
			for i := 0; i < nKeys; i++ {
				eng.Ingest(benchRecords(e*nKeys+i, at, at+300))
			}
		}
	}
	for _, a := range arrays {
		if a != arrays[0] {
			t.Fatalf("two engines' rounds in turn used %d reference arrays, not one: %v", len(arrays), arrays)
		}
	}
	if snap := engines[1].Snapshot(); len(snap) != nKeys {
		t.Fatalf("engine 1 serves %d keys, want %d", len(snap), nKeys)
	}

	// Two builds at once. First for certain: the spare is taken while a
	// build runs.
	part := mapmatch.Partition{}
	for i := 0; i < nKeys; i++ {
		part[benchApproachKey(i)] = benchRecords(i, 0, 1800)
	}
	cfg := DefaultStopExtractConfig()
	ref := buildRefStopIndex(part, cfg)
	check := func(rm *roundMem) {
		for k := range part {
			if got, want := rm.index.Stops(k), ref.stops[k]; len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("Stops(%v): got %d, reference %d, or not the same", k, len(got), len(want))
			}
		}
	}
	var rm roundMem
	rm.load(part)
	held := borrowStopScratch()
	rm.index.build(rm.view, rm.names, cfg)
	check(&rm)
	mine := spareStopScratch.Load()
	if mine == nil || mine == held {
		t.Fatalf("a build beside a taken spare must leave its own set behind")
	}
	held.refs = make([]stopRef, 0, 4*cap(mine.refs))
	returnStopScratch(held)
	if spareStopScratch.Load() != held {
		t.Errorf("the larger set was handed back and dropped")
	}
	returnStopScratch(mine)
	if spareStopScratch.Load() != held {
		t.Errorf("a smaller set displaced the larger one")
	}

	// Then for the race detector: four goroutines building over and over,
	// on views small enough that most of a build is the hand-over.
	var wg sync.WaitGroup
	mems := make([]roundMem, 4)
	for g := range mems {
		mems[g].load(part)
		for k, ms := range mems[g].view {
			if k != benchApproachKey(g) {
				mems[g].view[k] = ms.slice(0, 8)
			}
		}
		wg.Add(1)
		go func(rm *roundMem) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				rm.index.build(rm.view, rm.names, cfg)
			}
		}(&mems[g])
	}
	wg.Wait()
	for g := range mems {
		k := benchApproachKey(g)
		if got, want := mems[g].index.Stops(k), ref.stops[k]; !reflect.DeepEqual(got, want) {
			t.Errorf("builder %d, Stops(%v): got %d, reference %d, or not the same", g, k, len(got), len(want))
		}
	}
}

// TestStopIndexSpareHoldsNoPlate: the process-wide spare outlives every
// engine, so what a build leaves in it names no plate. A plate name is a
// view of a scanner slab, and one kept here would pin the slab.
func TestStopIndexSpareHoldsNoPlate(t *testing.T) {
	defer spareStopScratch.Store(spareStopScratch.Swap(nil))
	part := mapmatch.Partition{}
	for i := 0; i < 6; i++ {
		part[benchApproachKey(i)] = benchRecords(i, 0, 1800)
	}
	var rm roundMem
	rm.load(part)
	rm.index.build(rm.view, rm.names, DefaultStopExtractConfig())
	if len(rm.index.stops) == 0 {
		t.Fatal("the build found no red-light stops: nothing is tested")
	}
	ws := spareStopScratch.Load()
	if ws == nil {
		t.Fatal("the build handed no scratch back")
	}
	for name, runs := range map[string][]stopRun{"red": ws.red, "runs": ws.runs} {
		for i, r := range runs[:cap(runs)] {
			if r.ev.Plate != "" {
				t.Fatalf("spare %s[%d] keeps plate %q", name, i, r.ev.Plate)
			}
		}
	}
}
