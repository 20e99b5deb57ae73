package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"taxilight/internal/core"
	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/store"
)

// cycleFeed synthesises matched records for key over [t0, t1): four taxis
// loop past the light on a fixed schedule (cycle 90 + 7·(idx mod 5) s, red
// 40 % of it), reporting every 12 s — at rest at the stop line during red,
// moving through during green — so the engine identifies the key.
func cycleFeed(k mapmatch.Key, idx int, t0, t1 float64) []mapmatch.Matched {
	cycle := 90.0 + float64(idx%5)*7
	red := 0.4 * cycle
	base := float64(idx) * 1000
	var out []mapmatch.Matched
	for p := 0; p < 4; p++ {
		plate := fmt.Sprintf("P%03d-%d", idx, p)
		for t := t0 + float64(p)*3; t < t1; t += 12 {
			m := mapmatch.Matched{Plate: plate, Light: k.Light, Approach: k.Approach, T: t}
			if ph := math.Mod(t-float64(idx)*13+cycle, cycle); ph < red {
				m.DistToStop, m.Snapped = 8, geo.XY{X: 8, Y: base}
			} else {
				m.SpeedKMH = 30 + 15*math.Sin(t/7.3+float64(idx))
				m.DistToStop = 10 + float64((int(t)*37)%100)
				m.Snapped = geo.XY{X: m.DistToStop, Y: base}
			}
			out = append(out, m)
		}
	}
	return out
}

// published is one publish as seen by one of its three witnesses: the
// key and the window end of the estimate.
type published struct {
	k   mapmatch.Key
	end float64
}

func sortPublished(ps []published) []published {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.k != b.k {
			return a.k.Light < b.k.Light || a.k.Light == b.k.Light && a.k.Approach < b.k.Approach
		}
		return a.end < b.end
	})
	return ps
}

// TestEveryPublishPersistedAndWatchedOnce: every publish reaches the WAL
// and the watchers through one path, so the keys rounds and primes
// publish, the WAL's records and the watch events are one list. Rounds
// run with keys that keep failing; then primes of an older (refused), an
// equal and a newer window on a served key, and one of a new key. A
// restart restores before Start, and the WAL gains nothing.
func TestEveryPublishPersistedAndWatchedOnce(t *testing.T) {
	dir := t.TempDir()
	scfg := store.DefaultConfig()
	st, err := store.Open(dir, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var mu sync.Mutex
	var fromRounds []published
	s := newTestServer(t, func(cfg *Config) {
		cfg.Store = st
		cfg.CheckpointInterval = 0
		cfg.WatchQueue = 1024
		cfg.OnRound = func(_ int, rs core.RoundStats) {
			mu.Lock()
			defer mu.Unlock()
			for _, k := range rs.Published {
				fromRounds = append(fromRounds, published{k, rs.At})
			}
		}
	})

	key := func(i int) mapmatch.Key {
		return mapmatch.Key{Light: roadnet.NodeID(200 + i), Approach: lights.Approach(i % 2)}
	}
	var full, thin, all []mapmatch.Key
	for i := 0; i < 6; i++ {
		full = append(full, key(i))
	}
	for i := 6; i < 8; i++ {
		thin = append(thin, key(i))
	}
	fresh := key(8)
	all = append(append(append(all, full...), thin...), fresh)
	sub, err := s.hub.Subscribe(all)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	const end = 3600.0
	var feed []mapmatch.Matched
	for i, k := range full {
		feed = append(feed, cycleFeed(k, i, 0, end)...)
	}
	for i, k := range thin {
		feed = append(feed, cycleFeed(k, i, 0, end)[:3]...)
	}
	sort.SliceStable(feed, func(i, j int) bool { return feed[i].T < feed[j].T })
	lastT := make([]float64, len(s.shards))
	for _, m := range feed {
		i := shardIndex(mapmatch.Key{Light: m.Light, Approach: m.Approach}, len(s.shards))
		lastT[i] = max(lastT[i], m.T)
	}
	for lo := 0; lo < len(feed); lo += 500 {
		s.Dispatch(context.Background(), feed[lo:min(lo+500, len(feed))])
	}
	// Every shard's clock reached its newest record, and its last Advance
	// has returned (Advance(0) waits for a running one): no round runs
	// after this, so the primes below meet a settled engine.
	for i, sh := range s.shards {
		waitFor(t, fmt.Sprintf("shard %d to ingest its feed", i), func() bool { return sh.engine.Now() >= lastT[i] })
		if _, err := sh.engine.Advance(0); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	rounds := len(fromRounds)
	mu.Unlock()
	if rounds < 2*len(full) {
		t.Fatalf("rounds published %d estimates: the test exercises little", rounds)
	}
	for _, k := range thin {
		if h, ok := s.shardFor(k).engine.ApproachHealthFor(k); !ok || h.ConsecutiveFailures == 0 {
			t.Fatalf("thin key %v never failed (%+v): the test exercises no failing key", k, h)
		}
	}

	served, ok := s.EstimateFor(full[0])
	if !ok {
		t.Fatalf("%v has no estimate after the rounds", full[0])
	}
	var fromPrimes []published
	for _, c := range []struct {
		name  string
		k     mapmatch.Key
		end   float64
		taken int
	}{
		{"older", full[0], served.WindowEnd - 300, 0},
		{"equal", full[0], served.WindowEnd, 1},
		{"newer", full[0], served.WindowEnd + 300, 1},
		{"new key", fresh, 900, 1},
	} {
		res := primedResult(c.k)
		res.WindowStart, res.WindowEnd = c.end-1800, c.end
		if n := s.PrimeResults([]core.Result{res}); n != c.taken {
			t.Fatalf("%s prime: %d published, want %d", c.name, n, c.taken)
		}
		if c.taken == 1 {
			fromPrimes = append(fromPrimes, published{c.k, c.end})
		}
	}
	s.StopIngest()

	want := sortPublished(append(fromRounds, fromPrimes...))
	var wal []published
	for _, k := range all {
		recs, err := st.History(k, 0, 1e12, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			wal = append(wal, published{r.Key(), r.WindowEnd})
		}
	}
	var watched []published
	for len(sub.Frames()) > 0 {
		f := <-sub.Frames()
		_, data, _ := bytes.Cut(f.Bytes(), []byte("data: "))
		var doc struct {
			Light    int64  `json:"light"`
			Approach string `json:"approach"`
			Estimate struct {
				WindowEnd float64 `json:"window_end_s"`
			} `json:"estimate"`
		}
		if err := json.Unmarshal(bytes.TrimSpace(data), &doc); err != nil {
			t.Fatalf("watch frame %q: %v", f.Bytes(), err)
		}
		f.Release()
		a, err := parseApproach(doc.Approach)
		if err != nil {
			t.Fatal(err)
		}
		watched = append(watched, published{mapmatch.Key{Light: roadnet.NodeID(doc.Light), Approach: a}, doc.Estimate.WindowEnd})
	}
	if got := sortPublished(wal); !slices.Equal(got, want) {
		t.Fatalf("WAL holds %d records, %d publishes:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	if got := sortPublished(watched); !slices.Equal(got, want) {
		t.Fatalf("watchers got %d events, %d publishes:\n got %v\nwant %v", len(got), len(want), got, want)
	}

	// Restart: the restore before Start publishes every served key, and
	// the WAL gains no record.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := newTestServer(t, func(cfg *Config) { cfg.Store = st2; cfg.CheckpointInterval = 0 })
	recovered, _ := st2.RecoveredState()
	if n := s2.Restore(recovered); n != len(full)+1 {
		t.Fatalf("restore published %d keys, want %d", n, len(full)+1)
	}
	s2.Start()
	s2.StopIngest()
	if n := st2.Stats().AppendedRecords; n != 0 {
		t.Fatalf("a restore before Start appended %d records", n)
	}
}
