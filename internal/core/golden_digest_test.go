package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"taxilight/internal/mapmatch"
)

// engineGoldenDigest is the SHA-256 of every round the golden feed drives
// through an Engine: the round instant, the keys it published, and every
// served key's Result, fields in declaration order. It pins that a
// change to the engine's retention, round views or record types moves no
// estimate; a change meant to move estimates re-records it and says so.
const engineGoldenDigest = "7ba7a7a3e21de036f2875f039a470701353fb1ed7789f448b9e407d012a98c9a"

// goldenFeed drives a seeded, deterministic feed through an engine with
// the given round worker count and returns the digest of what it served
// plus the final health report. The feed covers the three ingest shapes
// the engine treats differently:
//
//   - in-order traffic on twelve approaches, one batch per stream minute,
//     each batch shuffled (out of order inside the batch);
//   - one record in ten held back and delivered two to five minutes late
//     (out of order across batches, still inside the window), and now and
//     then a record from 35 minutes earlier, which no window can use;
//   - approach 0 fed at three times the density of the rest against a
//     900-record cap, so it overflows about every five minutes and only
//     ever holds the last quarter hour.
//
// Counters that are meant to differ between retention rules
// (BufferedRecords, DroppedOldRecords) are not in the digest.
func goldenFeed(t *testing.T, workers int) (string, HealthReport) {
	t.Helper()
	const nKeys = 12
	const step, horizon = 60.0, 3 * 1800.0
	cfg := DefaultRealtimeConfig()
	cfg.Pipeline.Workers = workers
	cfg.Faults.MaxBufferPerKey = 900
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	key := func(k mapmatch.Key) { u64(uint64(k.Light)); u64(uint64(k.Approach)) }
	eng.SetRoundObserver(func(st RoundStats) {
		f64(st.At)
		u64(uint64(len(st.Published)))
		for _, k := range st.Published {
			key(k)
		}
		snap := eng.Snapshot()
		keys := make([]mapmatch.Key, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sortKeys(keys)
		u64(uint64(len(keys)))
		for _, k := range keys {
			r := snap[k].Result
			key(k)
			key(r.Key)
			for _, v := range []float64{r.Cycle, r.Red, r.Green, r.GreenToRedPhase, r.RedToGreenPhase, r.WindowStart, r.WindowEnd, r.Quality} {
				f64(v)
			}
			u64(uint64(r.Records))
			u64(uint64(r.Stops))
			if r.Enhanced {
				u64(1)
			} else {
				u64(0)
			}
			if r.Err != nil {
				h.Write([]byte(r.Err.Error()))
			}
		}
	})

	rng := rand.New(rand.NewSource(17))
	type held struct {
		due float64
		m   mapmatch.Matched
	}
	var late []held
	k0 := benchApproachKey(0)
	for t0 := 0.0; t0 < horizon; t0 += step {
		var batch []mapmatch.Matched
		for i := 0; i < nKeys; i++ {
			batch = append(batch, benchRecords(i, t0, t0+step)...)
		}
		// Approaches 90 and 180 share approach 0's cycle and phase.
		for _, i := range []int{90, 180} {
			for _, m := range benchRecords(i, t0, t0+step) {
				m.Light, m.Approach = k0.Light, k0.Approach
				batch = append(batch, m)
			}
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		now := batch[:0]
		for _, m := range batch {
			switch {
			case rng.Intn(10) == 0:
				late = append(late, held{due: t0 + step*float64(2+rng.Intn(4)), m: m})
			case rng.Intn(200) == 0 && m.Light != k0.Light:
				// Useless to every window; buffered or dropped, never seen.
				m.T -= 2100
				now = append(now, m)
			default:
				now = append(now, m)
			}
		}
		keep := late[:0]
		for _, l := range late {
			if l.due <= t0 {
				now = append(now, l.m)
			} else {
				keep = append(keep, l)
			}
		}
		late = keep
		// Two Ingest calls per step, so a batch boundary falls mid-minute.
		eng.Ingest(now[:len(now)/2])
		eng.Ingest(now[len(now)/2:])
		if _, err := eng.Advance(t0 + step); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), eng.Health()
}

func TestEngineGoldenDigest(t *testing.T) {
	for _, workers := range []int{1, 8} {
		got, rep := goldenFeed(t, workers)
		if got != engineGoldenDigest {
			t.Errorf("Pipeline.Workers=%d: digest %s, want %s", workers, got, engineGoldenDigest)
		}
		if rep.DroppedOverflowRecords == 0 {
			t.Errorf("Pipeline.Workers=%d: approach 0 never overflowed; the feed no longer covers eviction", workers)
		}
		served := 0
		for _, a := range rep.Approaches {
			if a.LastSuccessAt >= 0 {
				served++
			}
		}
		if served < 12 {
			t.Errorf("Pipeline.Workers=%d: %d of 12 approaches ever identified; the digest would pin failures", workers, served)
		}
	}
}
