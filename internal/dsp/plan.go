package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"
)

// planCore is the immutable, shareable part of an FFTPlan: the unpack
// twiddles of the packed real transform of one power-of-two length n. One
// core per length serves every worker in the process (see the plan-core
// cache below); per-call mutable buffers live on FFTPlan.
type planCore struct {
	n  int
	tw []complex128 // unpack twiddles e^{-2πik/n}, k ≤ n/2
}

func newPlanCore(n int) *planCore {
	p := &planCore{n: n, tw: make([]complex128, n/2+1)}
	for k := range p.tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = cmplx.Exp(complex(0, ang))
	}
	return p
}

// The plan-core cache shares one immutable core per transform length
// across the whole process. A parallel estimation round runs one
// identification worker per CPU, and every worker transforms the same
// one or two window lengths each round; without sharing, each worker's
// scratch rebuilds the same twiddle tables. Reads are the steady state, so
// the cache is read-mostly: an RWMutex-guarded map. Every length is a
// power of two, so the map never holds more than a few dozen cores.
var (
	planCoreMu    sync.RWMutex
	planCores     = map[int]*planCore{}
	planCacheHits atomic.Uint64
	planCacheMiss atomic.Uint64
)

func corePlanFor(n int) *planCore {
	planCoreMu.RLock()
	c := planCores[n]
	planCoreMu.RUnlock()
	if c != nil {
		planCacheHits.Add(1)
		return c
	}
	planCacheMiss.Add(1)
	c = newPlanCore(n)
	planCoreMu.Lock()
	if prev := planCores[n]; prev != nil {
		c = prev // lost the build race; share the published core
	} else {
		planCores[n] = c
	}
	planCoreMu.Unlock()
	return c
}

// PlanCacheStats reports the shared FFT plan-core cache counters: cache
// hits and misses since process start and the number of distinct
// transform lengths currently cached. The serving layer exports them as
// metrics.
func PlanCacheStats() (hits, misses uint64, size int) {
	planCoreMu.RLock()
	size = len(planCores)
	planCoreMu.RUnlock()
	return planCacheHits.Load(), planCacheMiss.Load(), size
}

// FFTPlan owns the scratch buffers for repeated transforms of one fixed
// input length, eliminating the per-call allocations of FFT/FFTReal. The
// continuous-monitoring loop transforms a window of the same length every
// five minutes for every light in the city; with a plan the hot loop
// allocates nothing.
//
// The transform length is the input length zero-padded up to a power of
// two (at least 2). The real input is packed into half as many complex
// points, transformed by one half-size radix-2 FFT, and unpacked with
// precomputed twiddles — roughly halving the transform work.
//
// The twiddle table is immutable and shared between every plan of the
// same transform length through a process-wide core cache; only the small
// input/magnitude buffers are per-plan. A plan is NOT safe for concurrent
// use; give each worker its own (cheap, since the tables are shared).
type FFTPlan struct {
	core *planCore
	n    int          // input length
	buf  []complex128 // the packed input, core.n/2 points
	mags []float64
}

// NewFFTPlan prepares a plan for inputs of length n, zero-padded to the
// next power of two, reusing the shared immutable core for that transform
// length when one is already cached.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n < 1 {
		return nil, fmt.Errorf("dsp: plan length %d < 1", n)
	}
	core := corePlanFor(max(NextPow2(n), 2))
	return &FFTPlan{core: core, n: n, buf: make([]complex128, core.n/2), mags: make([]float64, core.n)}, nil
}

// MagnitudesReal transforms the real signal x (len(x) must equal the
// plan's input length), zero-padded to the transform length, and returns
// the magnitude spectrum, one value per bin of the transform length. The
// returned slice is owned by the plan and overwritten by the next call.
func (p *FFTPlan) MagnitudesReal(x []float64) ([]float64, error) {
	if len(x) != p.n {
		return nil, fmt.Errorf("dsp: plan built for %d samples, got %d", p.n, len(x))
	}
	// Packed real transform: z[i] = x[2i] + i·x[2i+1], one half-size
	// complex FFT, then split Z into the spectra of the even/odd
	// subsequences (E[k] = (Z[k]+conj(Z[h-k]))/2,
	// O[k] = -i(Z[k]-conj(Z[h-k]))/2) and recombine
	// X[k] = E[k] + e^{-2πik/n}·O[k]. Real input means the upper half
	// of the spectrum mirrors the lower, so only magnitudes for
	// k ≤ n/2 are computed and the rest copied.
	n, h := p.core.n, p.core.n/2
	pairs := len(x) / 2
	for i := 0; i < pairs; i++ {
		p.buf[i] = complex(x[2*i], x[2*i+1])
	}
	clear(p.buf[pairs:])
	if len(x)%2 == 1 {
		p.buf[pairs] = complex(x[len(x)-1], 0)
	}
	fftRadix2(p.buf)
	z0 := p.buf[0]
	p.mags[0] = math.Abs(real(z0) + imag(z0))
	p.mags[h] = math.Abs(real(z0) - imag(z0))
	for k := 1; k < h; k++ {
		zk := p.buf[k]
		zc := cmplx.Conj(p.buf[h-k])
		e := (zk + zc) * complex(0.5, 0)
		o := (zk - zc) * complex(0, -0.5)
		m := cmplx.Abs(e + p.core.tw[k]*o)
		p.mags[k] = m
		p.mags[n-k] = m
	}
	return p.mags, nil
}
