package pubsub

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

// BenchmarkWatchFanout drives the hub the way a production round does:
// one publish per iteration fanning 64 updated keys out to every
// subscriber, with a consuming goroutine per subscriber stamping
// publish-to-client latency off each frame's PubNanos. It reports p99
// latency and allocs/event (Mallocs delta over total deliveries — the
// whole-process number, so it bounds the hot path from above).
//
// The default subscriber count keeps CI fast; set TAXILIGHT_WATCH_SOAK=1
// for the full 100k-subscriber run.
func BenchmarkWatchFanout(b *testing.B) {
	nSubs := 1000
	if os.Getenv("TAXILIGHT_WATCH_SOAK") == "1" {
		nSubs = 100_000
	}
	const nKeys = 64

	keys := make([]mapmatch.Key, nKeys)
	events := make([]Event, nKeys)
	for i := range keys {
		app := lights.NorthSouth
		if i%2 == 1 {
			app = lights.EastWest
		}
		keys[i] = mapmatch.Key{Light: roadnet.NodeID(i / 2), Approach: app}
		ev := testEvent(keys[i], 1)
		events[i] = ev
	}

	h := NewHub(Config{QueueLen: 8})

	// Latency samples land in a preallocated ring via an atomic cursor so
	// consumers never allocate while recording.
	samples := make([]int64, 1<<21)
	var cursor atomic.Uint64
	var delivered atomic.Uint64
	done := make(chan struct{})
	var wg sync.WaitGroup

	for i := 0; i < nSubs; i++ {
		sub, err := h.Subscribe([]mapmatch.Key{keys[i%nKeys]})
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func(s *Subscriber) {
			defer wg.Done()
			for {
				select {
				case f := <-s.Frames():
					lat := time.Now().UnixNano() - f.PubNanos
					f.Release()
					if idx := cursor.Add(1) - 1; idx < uint64(len(samples)) {
						samples[idx] = lat
					}
					delivered.Add(1)
				case <-done:
					return
				case <-s.Kicked():
					return
				}
			}
		}(sub)
	}
	if h.Subscribers() != nSubs {
		b.Fatalf("subscribed %d, want %d", h.Subscribers(), nSubs)
	}

	publish := func(round int) {
		version := uint64(round + 2)
		for i := range events {
			events[i].Version = version
		}
		before := delivered.Load()
		st := h.Publish("bench-round", float64(round), time.Now().UnixNano(), events)
		if st.Evicted > 0 {
			b.Fatalf("round %d evicted %d subscribers; consumers fell behind", round, st.Evicted)
		}
		for delivered.Load() < before+uint64(st.Delivered) {
			runtime.Gosched()
		}
	}

	// Warm the frame pool and per-key buffers, then measure from a clean
	// baseline.
	for r := 0; r < 3; r++ {
		publish(-1 - r)
	}
	cursor.Store(0)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := delivered.Load()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publish(i)
	}
	b.StopTimer()

	runtime.ReadMemStats(&ms1)
	total := delivered.Load() - base
	if total == 0 {
		b.Fatal("no deliveries measured")
	}
	allocsPerEvent := float64(ms1.Mallocs-ms0.Mallocs) / float64(total)

	n := int(cursor.Load())
	if n > len(samples) {
		n = len(samples)
	}
	lat := append([]int64(nil), samples[:n]...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[(len(lat)*99)/100]

	close(done)
	wg.Wait()

	b.ReportMetric(float64(p99), "p99-ns")
	b.ReportMetric(allocsPerEvent, "allocs/event")
	b.ReportMetric(float64(nSubs), "subscribers")
	if os.Getenv("TAXILIGHT_WATCH_SOAK") == "1" {
		fmt.Fprintf(os.Stderr, "watch-fanout: subs=%d rounds=%d events=%d p50=%dns p99=%dns allocs/event=%.4f\n",
			nSubs, b.N, total, lat[len(lat)/2], p99, allocsPerEvent)
	}
}
