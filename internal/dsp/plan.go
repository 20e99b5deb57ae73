package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"
)

// cplanCore is the immutable part of a reusable in-place forward DFT of
// one fixed complex length: radix-2 when the length is a power of two,
// Bluestein otherwise. The chirp and its precomputed filter FFT never
// change after construction, so one core is safely shared by any number
// of concurrent transforms; the Bluestein convolution scratch is the
// caller's (see transform).
type cplanCore struct {
	n       int
	pow2    bool
	chirp   []complex128 // Bluestein chirp for non-power-of-two sizes
	bfilter []complex128 // precomputed FFT of the chirp filter
	m       int          // Bluestein convolution length (0 for pow2)
}

func newCplanCore(n int) *cplanCore {
	p := &cplanCore{n: n, pow2: n&(n-1) == 0}
	if !p.pow2 {
		p.chirp = make([]complex128, n)
		for k := 0; k < n; k++ {
			// k² mod 2n keeps the chirp angle exact for large k.
			k2 := (int64(k) * int64(k)) % int64(2*n)
			ang := -math.Pi * float64(k2) / float64(n)
			p.chirp[k] = cmplx.Exp(complex(0, ang))
		}
		p.m = nextPow2(2*n - 1)
		p.bfilter = make([]complex128, p.m)
		for k := 0; k < n; k++ {
			p.bfilter[k] = cmplx.Conj(p.chirp[k])
		}
		for k := 1; k < n; k++ {
			p.bfilter[p.m-k] = cmplx.Conj(p.chirp[k])
		}
		fftRadix2(p.bfilter, false)
	}
	return p
}

// transform computes the forward DFT of x (length n) in place. work is
// the caller-owned Bluestein convolution buffer of length m (ignored,
// and may be nil, for power-of-two sizes); the core itself is never
// written, so concurrent transforms through one core are safe as long as
// each brings its own x and work.
func (p *cplanCore) transform(x, work []complex128) {
	if p.pow2 {
		fftRadix2(x, false)
		return
	}
	for i := range work {
		work[i] = 0
	}
	for k := 0; k < p.n; k++ {
		work[k] = x[k] * p.chirp[k]
	}
	fftRadix2(work, false)
	for i := range work {
		work[i] *= p.bfilter[i]
	}
	fftRadix2(work, true)
	invM := complex(1/float64(p.m), 0)
	for k := 0; k < p.n; k++ {
		x[k] = work[k] * invM * p.chirp[k]
	}
}

// planCore is the immutable, shareable part of an FFTPlan: the unpack
// twiddles of the packed real transform and the inner complex core. One
// core per transform length serves every worker in the process (see the
// plan-core cache below); per-call mutable buffers live on FFTPlan.
type planCore struct {
	n     int
	tw    []complex128 // unpack twiddles e^{-2πik/n}; nil for odd n
	inner *cplanCore
}

func newPlanCore(n int) *planCore {
	p := &planCore{n: n}
	if n%2 == 0 {
		h := n / 2
		p.tw = make([]complex128, h+1)
		for k := 0; k <= h; k++ {
			ang := -2 * math.Pi * float64(k) / float64(n)
			p.tw[k] = cmplx.Exp(complex(0, ang))
		}
		p.inner = newCplanCore(h)
	} else {
		p.inner = newCplanCore(n)
	}
	return p
}

// The plan-core cache shares one immutable core per transform length
// across the whole process. A parallel estimation round runs one
// identification worker per CPU, and every worker transforms the same
// one or two window lengths each round; without sharing, each worker's
// scratch rebuilds the same twiddle/chirp tables (tens of kilobytes and
// a few hundred microseconds per length). Reads are the steady state, so
// the cache is read-mostly: an RWMutex-guarded map with a size cap —
// lengths beyond the cap (a hostile caller sweeping sizes) are built
// uncached rather than evicting the hot ones.
var (
	planCoreMu       sync.RWMutex
	planCores        = map[int]*planCore{}
	planCacheHits    atomic.Uint64
	planCacheMiss    atomic.Uint64
	planCoreCacheMax = 256
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
	} else if len(planCores) < planCoreCacheMax {
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
// length, eliminating the per-call allocations of FFT/FFTReal. The
// continuous-monitoring loop transforms the same 1800- or 3600-sample
// window every five minutes for every light in the city; with a plan the
// hot loop allocates nothing.
//
// Even lengths additionally use real-input packing: the length-N real
// signal is packed into N/2 complex points, transformed by one half-size
// complex FFT, and unpacked with precomputed twiddles — roughly halving
// the transform work of the dominant even-window case.
//
// The twiddle and chirp tables are immutable and shared between every
// plan of the same length through a process-wide core cache; only the
// small input/magnitude/convolution buffers are per-plan. A plan is NOT
// safe for concurrent use; give each worker its own (cheap, since the
// tables are shared).
type FFTPlan struct {
	core *planCore
	buf  []complex128 // length n (odd) or n/2 (even, packed input)
	mags []float64
	work []complex128 // Bluestein convolution scratch; nil for pow2 inner
}

// NewFFTPlan prepares a plan for transforms of length n, reusing the
// shared immutable core for that length when one is already cached.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n < 1 {
		return nil, fmt.Errorf("dsp: plan length %d < 1", n)
	}
	core := corePlanFor(n)
	p := &FFTPlan{core: core, mags: make([]float64, n)}
	if core.tw != nil {
		p.buf = make([]complex128, n/2)
	} else {
		p.buf = make([]complex128, n)
	}
	if !core.inner.pow2 {
		p.work = make([]complex128, core.inner.m)
	}
	return p, nil
}

// MagnitudesReal transforms the real signal x (len(x) must equal N) and
// returns the magnitude spectrum. The returned slice is owned by the plan
// and overwritten by the next call.
func (p *FFTPlan) MagnitudesReal(x []float64) ([]float64, error) {
	n := p.core.n
	if len(x) != n {
		return nil, fmt.Errorf("dsp: plan built for %d samples, got %d", n, len(x))
	}
	if p.core.tw != nil {
		// Packed real transform: z[i] = x[2i] + i·x[2i+1], one half-size
		// complex FFT, then split Z into the spectra of the even/odd
		// subsequences (E[k] = (Z[k]+conj(Z[h-k]))/2,
		// O[k] = -i(Z[k]-conj(Z[h-k]))/2) and recombine
		// X[k] = E[k] + e^{-2πik/n}·O[k]. Real input means the upper half
		// of the spectrum mirrors the lower, so only magnitudes for
		// k ≤ n/2 are computed and the rest copied.
		h := n / 2
		for i := 0; i < h; i++ {
			p.buf[i] = complex(x[2*i], x[2*i+1])
		}
		p.core.inner.transform(p.buf, p.work)
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
	for i, v := range x {
		p.buf[i] = complex(v, 0)
	}
	p.core.inner.transform(p.buf, p.work)
	for i, v := range p.buf {
		p.mags[i] = cmplx.Abs(v)
	}
	return p.mags, nil
}
