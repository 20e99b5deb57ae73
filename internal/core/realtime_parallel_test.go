package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"taxilight/internal/mapmatch"
)

// TestParallelRoundMatchesSerial is the determinism oracle for worker
// parallelism: an engine running rounds with eight identification
// workers must publish bitwise-identical state to one running serially —
// estimates, carried-forward keys, and the quarantine/backoff ledger. A
// hook makes one fixed approach panic every round so the failure path is
// part of the comparison, not just the happy path.
func TestParallelRoundMatchesSerial(t *testing.T) {
	const chunk = 300.0
	const horizon = 2700.0
	const nKeys = 12
	panicKey := benchApproachKey(3)

	identifyHook = func(k mapmatch.Key) {
		if k == panicKey {
			panic("injected failure for parallel determinism oracle")
		}
	}
	defer func() { identifyHook = nil }()

	serialCfg := DefaultRealtimeConfig()
	serialCfg.Pipeline.Workers = 1
	serial, err := NewEngine(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := DefaultRealtimeConfig()
	parCfg.Pipeline.Workers = 8
	par, err := NewEngine(parCfg)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var parRounds []RoundStats
	par.SetRoundObserver(func(st RoundStats) {
		mu.Lock()
		parRounds = append(parRounds, st)
		mu.Unlock()
	})

	for at := chunk; at <= horizon; at += chunk {
		for i := 0; i < nKeys; i++ {
			batch := benchRecords(i, at-chunk, at)
			serial.Ingest(batch)
			par.Ingest(batch)
		}
		if _, err := serial.Advance(at); err != nil {
			t.Fatal(err)
		}
		if _, err := par.Advance(at); err != nil {
			t.Fatal(err)
		}
		ss, sv := serial.SnapshotVersioned()
		ps, pv := par.SnapshotVersioned()
		if sv != pv {
			t.Fatalf("at t=%v: version diverged: serial %d parallel %d", at, sv, pv)
		}
		if !reflect.DeepEqual(ss, ps) {
			t.Fatalf("at t=%v: snapshots diverged:\nserial   %+v\nparallel %+v", at, ss, ps)
		}
		if !reflect.DeepEqual(serial.Health(), par.Health()) {
			t.Fatalf("at t=%v: health reports diverged:\nserial   %+v\nparallel %+v",
				at, serial.Health(), par.Health())
		}
	}
	if len(serial.Snapshot()) == 0 {
		t.Fatal("no estimates produced; the comparison was vacuous")
	}
	if qs := serial.Health().Approaches[panicKey]; qs.ConsecutiveFailures == 0 && qs.Quarantines == 0 {
		t.Fatal("injected failure never registered; the ledger comparison was vacuous")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(parRounds) == 0 {
		t.Fatal("parallel engine observed no rounds")
	}
	for _, st := range parRounds {
		if st.Recomputed > 0 {
			want := 8
			if st.Recomputed < want {
				want = st.Recomputed
			}
			if st.Workers != want {
				t.Fatalf("round at %v recomputed %d keys with Workers=%d, want %d",
					st.At, st.Recomputed, st.Workers, want)
			}
		}
	}
}

// TestParallelRoundWithConcurrentReaders runs rounds with a multi-worker
// pool while reader goroutines hammer every read-path API and ingest
// keeps flowing. Its value is under -race (CI runs the package with it):
// any state shared between pipeline workers — a leaked FFT plan buffer, a
// shared scratch — or between the round and its readers trips the
// detector.
func TestParallelRoundWithConcurrentReaders(t *testing.T) {
	cfg := DefaultRealtimeConfig()
	cfg.Pipeline.Workers = 4
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 8
	for i := 0; i < nKeys; i++ {
		eng.Ingest(benchRecords(i, 0, 1800))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				eng.Snapshot()
				eng.EstimateFor(benchApproachKey(r))
				eng.StateOf(benchApproachKey(r), 900)
				eng.Health()
			}
		}(r)
	}
	for at := 1800.0; at <= 3600; at += 300 {
		for i := 0; i < nKeys; i++ {
			eng.Ingest(benchRecords(i, at-300, at))
		}
		if _, err := eng.Advance(at); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if len(eng.Snapshot()) == 0 {
		t.Fatal("no estimates published")
	}
}
