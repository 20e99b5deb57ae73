package dsp

import (
	"math"
	"sync"
	"testing"
)

// TestPlanCoreShared verifies that two plans padded to the same length
// share one immutable core and that the cache counters move accordingly.
func TestPlanCoreShared(t *testing.T) {
	const n = 1802 // not a power of two: padded to 2048
	h0, m0, _ := PlanCacheStats()
	a, err := NewFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFFTPlan(2048)
	if err != nil {
		t.Fatal(err)
	}
	if a.core != b.core || a.core.n != 2048 {
		t.Fatalf("plans of length %d and 2048 did not share one core of 2048", n)
	}
	if a.buf == nil || b.buf == nil || &a.buf[0] == &b.buf[0] {
		t.Fatal("plans share a mutable input buffer")
	}
	h1, m1, size := PlanCacheStats()
	if m1 == m0 && h1 == h0 {
		t.Fatalf("cache counters did not move: hits %d→%d misses %d→%d", h0, h1, m0, m1)
	}
	if h1 <= h0 {
		t.Fatalf("second plan of length 2048 was not a cache hit (hits %d→%d)", h0, h1)
	}
	if size < 1 {
		t.Fatalf("cache size %d after building plans", size)
	}
}

// TestPlanConcurrentSameLength runs many goroutines transforming through
// plans that share one core, under -race in CI, and checks each result
// against the naive DFT of the zero-padded input. Any hidden shared
// mutable state in the core would corrupt magnitudes or trip the race
// detector.
func TestPlanConcurrentSameLength(t *testing.T) {
	for _, n := range []int{256, 450, 1802, 901} { // a power of two, padded even and odd
		n := n
		want := magsNaive(t, n)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				p, err := NewFFTPlan(n)
				if err != nil {
					errs <- err
					return
				}
				x := testSignal(n, seed%2) // two distinct inputs interleaved
				ref := want[seed%2]
				for iter := 0; iter < 20; iter++ {
					got, err := p.MagnitudesReal(x)
					if err != nil {
						errs <- err
						return
					}
					for i := range got {
						if math.Abs(got[i]-ref[i]) > 1e-6*(1+ref[i]) {
							t.Errorf("n=%d seed=%d bin %d: got %g want %g", n, seed, i, got[i], ref[i])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

func testSignal(n, variant int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*7*float64(i)/float64(n)) +
			0.5*math.Cos(2*math.Pi*float64(3+variant*5)*float64(i)/float64(n))
	}
	return x
}

func magsNaive(t *testing.T, n int) [2][]float64 {
	t.Helper()
	var out [2][]float64
	for v := 0; v < 2; v++ {
		sig := testSignal(n, v)
		in := make([]complex128, n)
		for i, s := range sig {
			in[i] = complex(s, 0)
		}
		out[v] = Magnitudes(DFTNaive(zeroPadded(in)))
	}
	return out
}
