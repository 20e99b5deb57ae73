package core

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"taxilight/internal/mapmatch"
)

// TestRoundDoesNotBlockReadersOrIngest proves the non-blocking tick: a
// round whose identification is stuck must not stop concurrent readers
// or ingest. The identify hook parks the pipeline worker on a channel
// while the main goroutine exercises every reader-path API plus Ingest;
// under -race this also shakes out unsynchronised state shared between
// the round and its concurrent callers.
func TestRoundDoesNotBlockReadersOrIngest(t *testing.T) {
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng.Ingest(benchRecords(0, 0, 1800))

	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	identifyHook = func(mapmatch.Key) {
		once.Do(func() { close(entered) })
		<-release
	}
	defer func() { identifyHook = nil }()

	done := make(chan error, 1)
	go func() {
		_, err := eng.Advance(1800)
		done <- err
	}()
	<-entered // the round is in flight, its pipeline worker parked

	opsDone := make(chan struct{})
	go func() {
		defer close(opsDone)
		eng.Snapshot()
		eng.Version()
		eng.EstimateFor(benchApproachKey(0))
		eng.StateOf(benchApproachKey(0), 900)
		eng.Health()
		eng.Ingest(benchRecords(1, 1500, 1800))
	}()
	select {
	case <-opsDone:
	case <-time.After(10 * time.Second):
		t.Fatal("reader or ingest blocked while an estimation round was in flight")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 1800 {
		t.Fatalf("engine clock = %v after Advance", eng.Now())
	}
}

// TestIncrementalMatchesFullRecompute is the determinism oracle: on a
// stream where every approach receives records in every interval (so
// every key is dirty every round), the incremental engine must publish
// byte-identical estimates to an engine that re-identifies everything
// from scratch each round.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming integration")
	}
	const chunk = 300.0
	const horizon = 2700.0
	_, _, matched := realtimeFixture(t, horizon)

	// Keep only the approaches that report in every single interval;
	// quieter keys exercise carry-forward (tested separately), not the
	// recompute path compared here.
	nChunks := int(horizon / chunk)
	seen := make(map[mapmatch.Key]map[int]bool)
	for _, m := range matched {
		c := int(math.Ceil(m.T / chunk))
		if c < 1 {
			c = 1
		}
		if c > nChunks {
			continue
		}
		k := mapmatch.Key{Light: m.Light, Approach: m.Approach}
		if seen[k] == nil {
			seen[k] = make(map[int]bool)
		}
		seen[k][c] = true
	}
	keep := make(map[mapmatch.Key]bool)
	for k, cs := range seen {
		if len(cs) == nChunks {
			keep[k] = true
		}
	}
	if len(keep) < 3 {
		t.Fatalf("only %d approaches report every interval; fixture too sparse", len(keep))
	}
	var stream []mapmatch.Matched
	for _, m := range matched {
		if keep[mapmatch.Key{Light: m.Light, Approach: m.Approach}] {
			stream = append(stream, m)
		}
	}

	inc, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	full.fullReestimate = true

	idx := 0
	for at := chunk; at <= horizon; at += chunk {
		var batch []mapmatch.Matched
		for idx < len(stream) && stream[idx].T <= at {
			batch = append(batch, stream[idx])
			idx++
		}
		inc.Ingest(batch)
		full.Ingest(batch)
		if _, err := inc.Advance(at); err != nil {
			t.Fatal(err)
		}
		if _, err := full.Advance(at); err != nil {
			t.Fatal(err)
		}
		si := inc.Snapshot()
		sf := full.Snapshot()
		if len(si) != len(sf) {
			t.Fatalf("at t=%v: incremental published %d estimates, full %d", at, len(si), len(sf))
		}
		for k, fe := range sf {
			ie, ok := si[k]
			if !ok {
				t.Fatalf("at t=%v: key %v/%v missing from incremental snapshot", at, k.Light, k.Approach)
			}
			if !reflect.DeepEqual(ie, fe) {
				t.Fatalf("at t=%v: key %v/%v diverged:\nincremental %+v\nfull        %+v",
					at, k.Light, k.Approach, ie, fe)
			}
		}
	}
	if len(inc.Snapshot()) == 0 {
		t.Fatal("no estimates produced; the comparison was vacuous")
	}
}

// TestQuietRoundCarriesEstimatesForward checks the other half of the
// incremental contract: a round with no fresh data recomputes nothing
// and keeps every published estimate unchanged.
func TestQuietRoundCarriesEstimatesForward(t *testing.T) {
	eng, err := NewEngine(DefaultRealtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var rounds []RoundStats
	eng.SetRoundObserver(func(st RoundStats) {
		mu.Lock()
		rounds = append(rounds, st)
		mu.Unlock()
	})
	const nKeys = 4
	for i := 0; i < nKeys; i++ {
		eng.Ingest(benchRecords(i, 0, 1800))
	}
	if _, err := eng.Advance(1800); err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()
	if len(before) == 0 {
		t.Fatal("seed round published no estimates")
	}

	// No ingest between the rounds: everything must be carried.
	if _, err := eng.Advance(2100); err != nil {
		t.Fatal(err)
	}
	after := eng.Snapshot()
	if len(after) != len(before) {
		t.Fatalf("quiet round changed estimate count: %d -> %d", len(before), len(after))
	}
	for k, b := range before {
		a, ok := after[k]
		if !ok {
			t.Fatalf("quiet round dropped estimate for %v/%v", k.Light, k.Approach)
		}
		if !reflect.DeepEqual(a.Result, b.Result) {
			t.Fatalf("quiet round changed estimate for %v/%v:\nbefore %+v\nafter  %+v",
				k.Light, k.Approach, b.Result, a.Result)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(rounds) < 2 {
		t.Fatalf("observed %d rounds, want >= 2", len(rounds))
	}
	last := rounds[len(rounds)-1]
	if last.Recomputed != 0 {
		t.Fatalf("quiet round recomputed %d keys, want 0", last.Recomputed)
	}
	if last.Carried != len(before) {
		t.Fatalf("quiet round carried %d estimates, want %d", last.Carried, len(before))
	}
	if last.Duration <= 0 || last.LockHold <= 0 {
		t.Fatalf("round stats not populated: %+v", last)
	}
	if first := rounds[0]; first.Recomputed != nKeys || first.Carried != 0 {
		t.Fatalf("dense first round recomputed %d and carried %d, want %d and 0", first.Recomputed, first.Carried, nKeys)
	}
	for _, st := range rounds {
		if sum := st.Snapshot + st.StopIndex + st.Identify + st.Publish; sum != st.Duration {
			t.Fatalf("stages sum to %v, round took %v: %+v", sum, st.Duration, st)
		}
	}
}
