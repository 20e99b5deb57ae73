package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

// benchApproachKey returns the partition key of the i-th synthetic
// approach. Each approach gets its own light so the benchmark's keys are
// independent of each other.
func benchApproachKey(i int) mapmatch.Key {
	return mapmatch.Key{Light: roadnet.NodeID(100 + i), Approach: lights.NorthSouth}
}

// benchRecords synthesises matched records for one approach over [t0, t1):
// a handful of taxis loop past the light on a fixed red/green schedule,
// reporting every 12 s — stationary at the stop line during red (so stop
// extraction finds runs) and sweeping through at speed during green (so
// the DFT sees the fundamental). Fully deterministic: the same inputs
// always produce byte-identical records.
func benchRecords(keyIdx int, t0, t1 float64) []mapmatch.Matched {
	key := benchApproachKey(keyIdx)
	cycle := 90.0 + float64(keyIdx%5)*7
	red := 0.4 * cycle
	base := float64(keyIdx) * 1000
	const plates = 4
	const report = 12.0
	var out []mapmatch.Matched
	for p := 0; p < plates; p++ {
		plate := fmt.Sprintf("B%03d-%d", keyIdx, p)
		for t := t0 + float64(p)*3; t < t1; t += report {
			ph := math.Mod(t-float64(keyIdx)*13, cycle)
			if ph < 0 {
				ph += cycle
			}
			var speed, dist float64
			var pos geo.XY
			if ph < red {
				speed = 0
				dist = 8
				pos = geo.XY{X: 8, Y: base}
			} else {
				speed = 30 + 15*math.Sin(t/7.3+float64(keyIdx))
				dist = 10 + float64((int(t)*37)%100)
				pos = geo.XY{X: dist, Y: base}
			}
			out = append(out, mapmatch.Matched{
				Plate: plate, SpeedKMH: speed,
				Light:      key.Light,
				Approach:   key.Approach,
				T:          t,
				DistToStop: dist,
				Snapped:    pos,
			})
		}
	}
	return out
}

// seedBenchEngine builds an engine, fills one full window of data for
// every approach and runs the first estimation round, so the timed loop
// starts from a warm steady state.
func seedBenchEngine(b *testing.B, nKeys, workers int) *Engine {
	b.Helper()
	cfg := DefaultRealtimeConfig()
	cfg.RoundWorkers = workers
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nKeys; i++ {
		eng.Ingest(benchRecords(i, 0, 1800))
	}
	if _, err := eng.Advance(1800); err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkEngineAdvance measures one steady-state estimation tick.
// Dense feeds fresh records to every approach each interval (a full
// recompute); Dirty5pct feeds a rotating 5 % of the approaches, the
// city-scale regime the incremental engine targets. The w1 variants pin
// the round to one identification worker (the serial baseline); wmax
// lets the pool default to GOMAXPROCS — run with `-cpu 1,2,4,8` for the
// scaling curve (BENCH_6.json).
func BenchmarkEngineAdvance(b *testing.B) {
	const nKeys = 40
	for _, tc := range []struct {
		name   string
		stride int // every stride-th key gets fresh data per tick
	}{
		{"Dense", 1},
		{"Dirty5pct", 20},
	} {
		for _, wc := range []struct {
			name    string
			workers int
		}{
			{"w1", 1},
			{"wmax", 0},
		} {
			b.Run(tc.name+"/"+wc.name, func(b *testing.B) {
				eng := seedBenchEngine(b, nKeys, wc.workers)
				t := 1800.0
				// Untimed warm-up ticks so both variants measure their own
				// steady state rather than the transition out of the dense
				// seed window.
				for r := 1; r <= 3; r++ {
					t += 300
					for j := 0; j < nKeys; j++ {
						if (j+r)%tc.stride == 0 {
							eng.Ingest(benchRecords(j, t-300, t))
						}
					}
					if _, err := eng.Advance(t); err != nil {
						b.Fatal(err)
					}
				}
				batches := make([][]mapmatch.Matched, nKeys)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					t += 300
					for j := 0; j < nKeys; j++ {
						batches[j] = nil
						if (j+i)%tc.stride == 0 {
							batches[j] = benchRecords(j, t-300, t)
						}
					}
					b.StartTimer()
					for j := 0; j < nKeys; j++ {
						if batches[j] != nil {
							eng.Ingest(batches[j])
						}
					}
					if _, err := eng.Advance(t); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineIngestDuringEstimation measures the latency of a single
// small Ingest while estimation rounds run continuously in the
// background, each identification artificially slowed via identifyHook.
// An engine that holds its mutex across the whole round serves ingests at
// round granularity (tens of milliseconds); a non-blocking tick serves
// them in microseconds.
func BenchmarkEngineIngestDuringEstimation(b *testing.B) {
	const nKeys = 40
	eng := seedBenchEngine(b, nKeys, 0)
	started := make(chan struct{})
	var once sync.Once
	identifyHook = func(mapmatch.Key) {
		once.Do(func() { close(started) })
		time.Sleep(200 * time.Microsecond)
	}
	defer func() { identifyHook = nil }()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := eng.Now()
		for {
			select {
			case <-stop:
				return
			default:
			}
			t += 300
			// Keep every approach fresh so each round re-identifies all
			// of them — the worst-case round the measured ingests race.
			for j := 0; j < nKeys; j++ {
				eng.Ingest(benchRecords(j, t-300, t))
			}
			if _, err := eng.Advance(t); err != nil {
				return
			}
		}
	}()
	rec := benchRecords(0, 0, 13)[:1]
	<-started // a slow round is now in flight
	b.ReportAllocs()
	b.ResetTimer()
	var maxNs int64
	for i := 0; i < b.N; i++ {
		rec[0].T = eng.Now() + 1
		start := time.Now()
		eng.Ingest(rec)
		if d := time.Since(start).Nanoseconds(); d > maxNs {
			maxNs = d
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(maxNs), "max-ns")
	close(stop)
	<-done
}
