package server

import (
	"math"
	"testing"

	"taxilight/internal/core"
)

// TestRoundStaggerSpreadsShardOffsets checks the pacing contract: with
// stagger on, no two shards' estimation rounds may start within half a
// stagger slot (interval/shards) of each other — including the
// wrap-around pair at the interval boundary — and every offset must be a
// valid RoundOffset in [0, interval).
func TestRoundStaggerSpreadsShardOffsets(t *testing.T) {
	for _, shards := range []int{2, 4, 8, 25} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		srv, err := New(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		interval := cfg.Realtime.Interval
		slot := interval / float64(shards)
		offsets := make([]float64, 0, shards)
		for _, eng := range srv.Engines() {
			off := eng.Config().RoundOffset
			if off < 0 || off >= interval {
				t.Fatalf("shards=%d: offset %v outside [0, %v)", shards, off, interval)
			}
			offsets = append(offsets, off)
		}
		for i := 0; i < len(offsets); i++ {
			for j := i + 1; j < len(offsets); j++ {
				gap := math.Abs(offsets[i] - offsets[j])
				if wrap := interval - gap; wrap < gap {
					gap = wrap // circular distance: rounds repeat every interval
				}
				if gap < slot/2 {
					t.Fatalf("shards=%d: shards %d and %d start rounds %vs apart, want >= %vs (offsets %v)",
						shards, i, j, gap, slot/2, offsets)
				}
			}
		}
	}
}

// TestRoundStaggerDisabled checks that a single shard, with nothing to
// stagger against, leaves its engine at offset zero.
func TestRoundStaggerDisabled(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"SingleShard", func(c *Config) { c.Shards = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mod(&cfg)
			srv, err := New(nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, eng := range srv.Engines() {
				if off := eng.Config().RoundOffset; off != 0 {
					t.Fatalf("shard %d has RoundOffset %v with stagger disabled", i, off)
				}
			}
		})
	}
}

// TestStaggeredFirstRoundsFire proves a staggered engine still runs its
// rounds: the first round lands at first-advance + offset and subsequent
// rounds keep the interval cadence, so no estimation work is lost to the
// phase shift.
func TestStaggeredFirstRoundsFire(t *testing.T) {
	cfg := core.DefaultRealtimeConfig()
	cfg.RoundOffset = 120
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []float64
	eng.SetRoundObserver(func(st core.RoundStats) { rounds = append(rounds, st.At) })
	if _, err := eng.Advance(1800); err != nil { // first round scheduled at 1920
		t.Fatal(err)
	}
	if len(rounds) != 0 {
		t.Fatalf("round fired before the offset elapsed: %v", rounds)
	}
	if _, err := eng.Advance(1800 + 120 + 2*cfg.Interval); err != nil {
		t.Fatal(err)
	}
	want := []float64{1920, 1920 + cfg.Interval, 1920 + 2*cfg.Interval}
	if len(rounds) != len(want) {
		t.Fatalf("rounds at %v, want %v", rounds, want)
	}
	for i := range want {
		if rounds[i] != want[i] {
			t.Fatalf("rounds at %v, want %v", rounds, want)
		}
	}
}
