package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"taxilight/internal/mapmatch"
)

// records copies v's observations out, in order.
func (v obsView) records() []obs {
	out := make([]obs, v.n)
	for i := range out {
		out[i] = *v.at(i)
	}
	return out
}

// refKeyBuffer is the key buffer as one slice, the way the engine kept it
// before pages: the oracle the paged buffer is held to. push, normalize,
// evict and trim are the old bodies of Ingest's per-record step,
// normalizeLocked, evictOldestLocked and the trim of one buffer.
type refKeyBuffer struct {
	ms      []obs
	sorted  int
	evicted int64
}

func (rb *refKeyBuffer) push(o obs, maxPerKey int) {
	if maxPerKey > 0 && len(rb.ms) >= maxPerKey {
		rb.evict(maxPerKey)
	}
	if rb.sorted == len(rb.ms) && (len(rb.ms) == 0 || o.t >= rb.ms[len(rb.ms)-1].t) {
		rb.sorted = len(rb.ms) + 1
	}
	rb.ms = append(rb.ms, o)
}

func (rb *refKeyBuffer) normalize() {
	if rb.sorted >= len(rb.ms) {
		rb.sorted = len(rb.ms)
		return
	}
	suffix := rb.ms[rb.sorted:]
	slices.SortStableFunc(suffix, func(a, b obs) int { return cmp.Compare(a.t, b.t) })
	prefix := rb.ms[:rb.sorted]
	out := make([]obs, 0, len(rb.ms))
	i, j := 0, 0
	for i < len(prefix) && j < len(suffix) {
		if suffix[j].t < prefix[i].t {
			out = append(out, suffix[j])
			j++
		} else {
			out = append(out, prefix[i])
			i++
		}
	}
	out = append(out, prefix[i:]...)
	out = append(out, suffix[j:]...)
	copy(rb.ms, out)
	rb.sorted = len(rb.ms)
}

func (rb *refKeyBuffer) evict(maxPerKey int) {
	rb.ms = slices.Clone(rb.ms)
	rb.normalize()
	drop := min(max(len(rb.ms)-maxPerKey*3/4, 1), len(rb.ms))
	rb.evicted += int64(drop)
	rb.ms = rb.ms[drop:]
	rb.sorted = len(rb.ms)
}

func (rb *refKeyBuffer) trim(cutoff float64) {
	rb.normalize()
	ms := rb.ms
	lo := sort.Search(len(ms), func(i int) bool { return ms[i].t >= cutoff })
	rb.ms = ms[lo:]
	rb.sorted = len(rb.ms)
}

// window is what a round at `at` reads of the normalized buffer.
func (rb *refKeyBuffer) window(t0, at float64) []obs {
	ms := rb.ms
	lo := sort.Search(len(ms), func(i int) bool { return ms[i].t >= t0 })
	hi := sort.Search(len(ms), func(i int) bool { return ms[i].t > at })
	return ms[lo:hi]
}

// keyBufferRig drives an engine's key buffers and their references with
// the same operations and checks, after each, that the two agree record
// for record and that the pages are consistent.
type keyBufferRig struct {
	t    *testing.T
	eng  *Engine
	keys []mapmatch.Key
	refs []refKeyBuffer
	// views the last snapshot handed out, and what they held then; they
	// stay live until a trim or a normalize, as a round's do.
	views map[mapmatch.Key]obsView
	held  map[mapmatch.Key][]obs
	rm    roundMem
}

func newKeyBufferRig(t *testing.T, nKeys, maxPerKey int) *keyBufferRig {
	cfg := DefaultRealtimeConfig()
	cfg.Faults.MaxBufferPerKey = maxPerKey
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &keyBufferRig{t: t, eng: eng, refs: make([]refKeyBuffer, nKeys)}
	for k := 0; k < nKeys; k++ {
		r.keys = append(r.keys, benchApproachKey(k))
		eng.approachLocked(r.keys[k])
	}
	return r
}

func (r *keyBufferRig) buf(k int) *keyBuffer { return &r.eng.approaches[r.keys[k]].buf }

func (r *keyBufferRig) push(k int, o obs) {
	o.plate = r.eng.plates.intern(fmt.Sprintf("P%d", o.plate))
	r.eng.bufferLocked(r.buf(k), o)
	r.refs[k].push(o, r.eng.cfg.Faults.MaxBufferPerKey)
}

// endViews checks that the live views still hold what they held at the
// snapshot, and ends them.
func (r *keyBufferRig) endViews(step string) {
	for k, v := range r.views {
		if got := v.records(); !slices.Equal(got, r.held[k]) {
			r.t.Fatalf("%s: the view of %v changed while it was live", step, k)
		}
	}
	r.views, r.held = nil, nil
}

func (r *keyBufferRig) normalize(k int) {
	r.endViews("normalize")
	r.eng.normalizeLocked(r.buf(k))
	r.refs[k].normalize()
}

func (r *keyBufferRig) trim(cutoff float64) {
	r.endViews("trim")
	r.eng.nextRun = cutoff + r.eng.cfg.Window
	cutoff = r.eng.retainFromLocked()
	r.eng.trimLocked()
	for k := range r.refs {
		r.refs[k].trim(cutoff)
	}
}

// snapshot takes every key's window view as a round would, and checks
// each against the reference's.
func (r *keyBufferRig) snapshot(step string, t0, at float64) {
	r.endViews("snapshot")
	for i, k := range r.keys {
		r.eng.markDirtyLocked(r.eng.approaches[k])
		r.refs[i].normalize()
	}
	r.eng.snapshotLocked(&r.rm, t0, at)
	r.views, r.held = map[mapmatch.Key]obsView{}, map[mapmatch.Key][]obs{}
	for i, k := range r.keys {
		want := r.refs[i].window(t0, at)
		v := r.rm.view[k]
		if got := v.records(); !slices.Equal(got, want) {
			r.t.Fatalf("%s: view of %v over [%v, %v] holds %d records, the reference %d, or not the same", step, k, t0, at, len(got), len(want))
		}
		if v.n > 0 && (v.off >= pageLen || len(v.pages) != (v.off+v.n+pageMask)>>pageShift || cap(v.pages) != len(v.pages)) {
			r.t.Fatalf("%s: view of %v has %d pages (cap %d) for %d records from slot %d", step, k, len(v.pages), cap(v.pages), v.n, v.off)
		}
		r.views[k], r.held[k] = v, want
	}
}

// check compares every buffer with its reference, the engine's counts with
// the references' sums, and the pages with one another.
func (r *keyBufferRig) check(step string) {
	t, eng := r.t, r.eng
	buffered, evicted := 0, int64(0)
	held := map[uint32]int32{}
	seen := map[*obsPage]string{}
	for i, k := range r.keys {
		kb, ref := r.buf(i), &r.refs[i]
		if got := kb.records(); !slices.Equal(got, ref.ms) || kb.sorted != ref.sorted {
			t.Fatalf("%s: %v holds %d records (%d sorted), the reference %d (%d sorted), or not the same",
				step, k, len(got), kb.sorted, len(ref.ms), ref.sorted)
		}
		if want := (kb.off + kb.n + pageMask) >> pageShift; kb.off >= pageLen || len(kb.pages) != want || (kb.n == 0 && kb.off != 0) {
			t.Fatalf("%s: %v keeps %d pages for %d records from slot %d, want %d", step, k, len(kb.pages), kb.n, kb.off, want)
		}
		for _, p := range kb.pages {
			if where, dup := seen[p]; dup {
				t.Fatalf("%s: a page of %v is also %s", step, k, where)
			}
			seen[p] = fmt.Sprintf("a page of %v", k)
		}
		for _, o := range ref.ms {
			held[o.id()]++
		}
		buffered += len(ref.ms)
		evicted += ref.evicted
	}
	for _, p := range eng.freePages {
		if where, dup := seen[p]; dup {
			t.Fatalf("%s: a free page is also %s", step, where)
		}
		seen[p] = "free"
	}
	for k, v := range r.views {
		for _, p := range v.pages {
			if seen[p] == "free" {
				t.Fatalf("%s: a free page is in the live view of %v", step, k)
			}
		}
	}
	for id, refs := range eng.plates.refs {
		if refs != held[uint32(id)] {
			t.Fatalf("%s: plate id %d counts %d buffered observations, the references hold %d", step, id, refs, held[uint32(id)])
		}
	}
	if rep := eng.Health(); rep.BufferedRecords != buffered || rep.DroppedOverflowRecords != evicted {
		t.Fatalf("%s: engine buffers %d and evicted %d, the references %d and %d",
			step, rep.BufferedRecords, rep.DroppedOverflowRecords, buffered, evicted)
	}
}

// TestKeyBufferMatchesReference holds the paged key buffer to the slice it
// replaced: random arrivals, in order and late, with equal timestamps,
// evictions at small caps, trims at random cutoffs and window views at
// random instants, on three keys sharing one free list. After every step
// each buffer holds what its reference holds, in the same order and with
// the same sorted prefix; every view holds the reference's window and
// keeps it while it is live, evictions included; the engine's buffered and
// evicted counts and plate references equal the references'; and no page
// is in two places, nor on the free list and in a live view.
func TestKeyBufferMatchesReference(t *testing.T) {
	caps := []int{0, 1, 127, 128, 129, 256, 700}
	for seed := int64(1); seed <= 28; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxPerKey := caps[int(seed)%len(caps)]
		r := newKeyBufferRig(t, 3, maxPerKey)
		now := 1000.0 // a view ending before 0 would find every key quarantined
		for step := 0; step < 200; step++ {
			name := fmt.Sprintf("seed %d cap %d step %d", seed, maxPerKey, step)
			switch op := rng.Intn(10); {
			case op < 6:
				k, late := rng.Intn(len(r.keys)), rng.Intn(3) == 0
				for i, n := 0, rng.Intn(300); i < n; i++ {
					now += rng.Float64()
					o := obs{t: math.Round(now), speed: float64(step), dist: float64(i), plate: uint32(rng.Intn(12))}
					if late && rng.Intn(2) == 0 {
						o.t -= math.Round(200 * rng.Float64())
					}
					r.push(k, o)
				}
			case op == 6:
				r.normalize(rng.Intn(len(r.keys)))
			case op < 9:
				r.trim(now - 900*rng.Float64())
			default:
				at := now - 300*rng.Float64()
				r.snapshot(name, at-600*rng.Float64(), at)
			}
			r.check(name)
		}
		r.trim(now + 1)
		r.check(fmt.Sprintf("seed %d: everything trimmed", seed))
		if n := len(r.eng.freePages); n != 0 {
			t.Fatalf("seed %d: an engine with nothing buffered keeps %d free pages", seed, n)
		}
	}
}

// TestKeyBufferPageEdges: lengths, trims and views at and beside page
// edges, against the reference.
func TestKeyBufferPageEdges(t *testing.T) {
	edges := []int{0, 1, 127, 128, 129, 256}
	for _, n := range edges {
		for _, drop := range edges {
			if drop > n {
				continue
			}
			name := fmt.Sprintf("%d records, %d trimmed", n, drop)
			r := newKeyBufferRig(t, 1, 0)
			for i := 0; i < n; i++ {
				r.push(0, obs{t: float64(i), plate: uint32(i % 5)})
			}
			r.check(name)
			r.trim(float64(drop))
			r.check(name)
			for _, lo := range edges {
				for _, hi := range edges {
					if lo <= hi && hi <= n-drop {
						// Records are one second apart from drop on.
						r.snapshot(fmt.Sprintf("%s, view [%d, %d)", name, lo, hi), float64(drop+lo), float64(drop+hi)-0.5)
					}
				}
			}
			for i := 0; i < 130; i++ {
				r.push(0, obs{t: float64(n + i), plate: uint32(i % 5)})
			}
			r.check(name + ", then 130 more")
		}
	}
	// Eviction at the edges: a buffer capped at one of them overflows by one.
	for _, maxPerKey := range edges[1:] {
		r := newKeyBufferRig(t, 1, maxPerKey)
		for i := 0; i <= 2*maxPerKey; i++ {
			r.push(0, obs{t: float64(i), plate: uint32(i % 5)})
			r.check(fmt.Sprintf("cap %d, %d pushed", maxPerKey, i+1))
		}
	}
}
