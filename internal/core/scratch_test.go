package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"taxilight/internal/mapmatch"
)

// useScratchSet makes set the process-wide scratch set for the rest of
// the test.
func useScratchSet(t *testing.T, set *scratchSet) {
	old := scratches
	scratches = set
	t.Cleanup(func() { scratches = old })
}

func (s *scratchSet) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.made
}

// idleScratches lists the scratches of a set nobody is borrowing from.
func (s *scratchSet) idleScratches() []*identifyScratch {
	out := make([]*identifyScratch, 0, len(s.idle))
	for len(out) < cap(out) {
		out = append(out, <-s.idle)
	}
	for _, sc := range out {
		s.idle <- sc
	}
	return out
}

// largestHeld walks a scratch — its own slices, the resampler's and the
// spline's, the lengths of its cached plans — and names the one with room
// for the most elements.
func largestHeld(sc *identifyScratch) (name string, most int) {
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			if v.Cap() > most {
				name, most = path, v.Cap()
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Map: // plans, keyed by length
			for _, k := range v.MapKeys() {
				if n := int(k.Int()); n > most {
					name, most = fmt.Sprintf("%s[%d]", path, n), n
				}
			}
		}
	}
	walk("scratch", reflect.ValueOf(sc).Elem())
	return name, most
}

// advanceRounds ingests each key's next stretch of benchRecords and runs
// the round at its end, once for every Interval in (from, to].
func advanceRounds(t *testing.T, eng *Engine, keys []int, from, to float64) {
	for at := from + 300; at <= to; at += 300 {
		for _, k := range keys {
			eng.Ingest(benchRecords(k, at-300, at))
		}
		if _, err := eng.Advance(at); err != nil {
			t.Error(err)
			return
		}
	}
}

// TestScratchSetBounded: identification's working memory is one scratch
// per core, for every engine and every one-shot call in the process, and
// no more than the last borrow needed.
func TestScratchSetBounded(t *testing.T) {
	keysOf := func(e, n int) []int {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = e*n + i
		}
		return keys
	}

	t.Run("ConcurrentEngines", func(t *testing.T) {
		// Three engines of eight round workers each share the set's cores
		// and publish what one serial worker publishes.
		size := runtime.GOMAXPROCS(0)
		set := newScratchSet(size)
		useScratchSet(t, set)
		const nEngines, nKeys = 3, 8
		run := func(workers int, concurrently bool) []map[mapmatch.Key]Estimate {
			snaps := make([]map[mapmatch.Key]Estimate, nEngines)
			var wg sync.WaitGroup
			for e := range snaps {
				cfg := DefaultRealtimeConfig()
				cfg.Pipeline.Workers = workers
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				drive := func() {
					defer wg.Done()
					advanceRounds(t, eng, keysOf(e, nKeys), 0, 2700)
					snaps[e] = eng.Snapshot()
				}
				wg.Add(1)
				if concurrently {
					go drive()
				} else {
					drive()
				}
			}
			wg.Wait()
			return snaps
		}
		parallel := run(8, true)
		if n := set.count(); n < 1 || n > size {
			t.Fatalf("the set made %d scratches, want 1 to %d", n, size)
		}
		serial := run(1, false)
		for e := range serial {
			if len(serial[e]) == 0 || !reflect.DeepEqual(parallel[e], serial[e]) {
				t.Errorf("engine %d: %d estimates with eight workers on a shared set, %d serially, or not the same", e, len(parallel[e]), len(serial[e]))
			}
		}
	})

	t.Run("SurvivesCollections", func(t *testing.T) {
		set := newScratchSet(runtime.GOMAXPROCS(0))
		useScratchSet(t, set)
		eng, err := NewEngine(DefaultRealtimeConfig())
		if err != nil {
			t.Fatal(err)
		}
		keys := keysOf(0, 8)
		advanceRounds(t, eng, keys, 0, 2400)
		made := set.count()
		runtime.GC()
		runtime.GC()
		advanceRounds(t, eng, keys, 2400, 2700)
		if n := set.count(); n != made {
			t.Errorf("a round after two collections made scratches %d → %d, want none", made, n)
		}
		for _, sc := range set.idleScratches() {
			if len(sc.plans) == 0 {
				t.Errorf("a scratch lost its plan")
			}
		}
	})

	t.Run("SizeOneBesideOneShot", func(t *testing.T) {
		// One core's worth: eight round workers and a caller of every
		// exported entry point wait for each other and all finish.
		set := newScratchSet(1)
		useScratchSet(t, set)
		cfg := DefaultRealtimeConfig()
		cfg.Pipeline.Workers = 8
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs := benchRecords(0, 0, 1800)
		samples := SpeedSamples(recs)
		idx, err := BuildStopIndex(mapmatch.Partition{benchApproachKey(0): recs}, DefaultStopExtractConfig())
		if err != nil {
			t.Fatal(err)
		}
		stops := idx.Stops(benchApproachKey(0))
		done := make(chan struct{}, 2)
		go func() {
			defer func() { done <- struct{}{} }()
			advanceRounds(t, eng, keysOf(0, 8), 0, 3000)
		}()
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 20; i++ {
				cycle, err := IdentifyCycle(samples, 0, 1800, DefaultCycleConfig())
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = IdentifyCycleEnhanced(samples[:20], samples, 0, 1800, DefaultCycleConfig())
				_ = FoldScore(samples, cycle, 0)
				_ = Enhance(samples, samples)
				red, err := IdentifyRed(stops, cycle, DefaultRedConfig())
				if err != nil {
					t.Error(err)
					return
				}
				folded, _ := Superpose(samples, cycle, 0)
				_, _ = FoldedSpeedCurve(folded, cycle)
				_, _ = IdentifyChange(folded, cycle, red)
			}
		}()
		for i := 0; i < 2; i++ {
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				t.Fatal("a round and one-shot calls on a set of one did not finish: deadlock")
			}
		}
		if n := set.count(); n != 1 {
			t.Errorf("a set of one made %d scratches", n)
		}
		if len(eng.Snapshot()) == 0 {
			t.Error("the round beside the one-shot calls published nothing")
		}
	})

	t.Run("BurstDoesNotStay", func(t *testing.T) {
		// A key at the buffer cap sizes a scratch to 20 000 samples; the
		// thin rounds after it take the excess back.
		set := newScratchSet(runtime.GOMAXPROCS(0))
		useScratchSet(t, set)
		cfg := DefaultRealtimeConfig()
		cfg.Pipeline.Workers = 1
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		burst := benchApproachKey(99)
		var recs []mapmatch.Matched
		for src := 0; len(recs) < cfg.Faults.MaxBufferPerKey; src++ {
			for _, m := range benchRecords(src, 0, 1800) {
				m.Light, m.Approach = burst.Light, burst.Approach
				recs = append(recs, m)
			}
		}
		eng.Ingest(recs[:cfg.Faults.MaxBufferPerKey])
		if _, err := eng.Advance(1800); err != nil {
			t.Fatal(err)
		}
		// The most a round of ordinary keys asks of a scratch: the
		// window's grid.
		thin := int(cfg.Window) + 1
		sized := false
		for _, sc := range set.idleScratches() {
			_, most := largestHeld(sc)
			sized = sized || most >= cfg.Faults.MaxBufferPerKey/2
		}
		if !sized {
			t.Fatal("the burst round sized no scratch to the burst; the test measures nothing")
		}
		advanceRounds(t, eng, keysOf(0, 4), 1800, 2400)
		for i, sc := range set.idleScratches() {
			if name, most := largestHeld(sc); oversized(most, thin) {
				t.Errorf("scratch %d still holds %s with room for %d elements after thin rounds of at most %d", i, name, most, thin)
			}
		}
	})
}
