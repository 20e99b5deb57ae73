// The two classical baselines BenchmarkAblationCycleMethod holds the
// paper's interpolate-then-DFT cycle estimator against (§V), with their
// tests. Nothing outside the benchmark runs them, so they live here.
package experiments_test

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"

	"taxilight/internal/core"
	"taxilight/internal/dsp"
	"taxilight/internal/lights"
)

// identifyCycleACF estimates the cycle length by autocorrelation instead
// of the paper's DFT: the dominant autocorrelation lag of the interpolated
// 1 Hz speed signal within the plausible band is the cycle. Time-domain
// period estimation is what velocity-profile approaches like Kerper et
// al. effectively do.
func identifyCycleACF(samples []dsp.Sample, t0, t1 float64, cfg core.CycleConfig) (float64, error) {
	_, grid, err := core.CycleInput(samples, t0, t1, cfg)
	if err != nil {
		return 0, err
	}
	maxLag := min(int(cfg.MaxCycle), len(grid)-1)
	if maxLag < int(cfg.MinCycle) {
		return 0, fmt.Errorf("window of %d s too short for cycle band [%v, %v]", len(grid), cfg.MinCycle, cfg.MaxCycle)
	}
	acf, err := autocorrelation(grid, maxLag)
	if err != nil {
		return 0, err
	}
	lag, err := dominantLag(acf, int(cfg.MinCycle), maxLag)
	return float64(lag), err
}

// identifyCycleLombScargle estimates the cycle length with the
// Lomb-Scargle periodogram evaluated directly on the merged irregular
// samples, with no interpolation step at all: the estimator
// purpose-built for irregular sampling.
func identifyCycleLombScargle(samples []dsp.Sample, t0, t1 float64, cfg core.CycleConfig) (float64, error) {
	in, _, err := core.CycleInput(samples, t0, t1, cfg)
	if err != nil {
		return 0, err
	}
	// Scan at roughly the DFT's resolution over the same window length.
	step := min(max(cfg.MinCycle*cfg.MinCycle/(t1-t0), 0.25), 2)
	return lombScarglePeriod(in, cfg.MinCycle, cfg.MaxCycle, step)
}

// autocorrelation returns the biased sample autocorrelation of x for lags
// 0..maxLag, normalised so that lag 0 equals 1, in O(n log n) through a
// zero-padded FFT. An all-constant signal yields NaN beyond lag 0 (zero
// variance).
func autocorrelation(x []float64, maxLag int) ([]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("empty signal")
	}
	if maxLag < 0 || maxLag >= n {
		return nil, fmt.Errorf("maxLag %d outside [0, %d)", maxLag, n)
	}
	// Zero-pad to a power of two of at least 2n against circular
	// wrap-around.
	m := 1 << bits.Len(uint(2*n-1))
	buf := make([]complex128, m)
	for i, v := range dsp.Detrend(x) {
		buf[i] = complex(v, 0)
	}
	buf = dsp.FFT(buf)
	// The inverse transform of the power spectrum is the conjugate of the
	// forward transform of its conjugate; only its real part is read.
	for i := range buf {
		buf[i] = cmplx.Conj(buf[i] * cmplx.Conj(buf[i]))
	}
	buf = dsp.FFT(buf)
	out := make([]float64, maxLag+1)
	r0 := real(buf[0]) / float64(m)
	if r0 == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		out[0] = 1
		return out, nil
	}
	for k := range out {
		out[k] = (real(buf[k]) / float64(m)) / r0
	}
	return out, nil
}

// dominantLag finds the lag in [minLag, maxLag] with the highest
// autocorrelation that is also a local maximum (so the slowly decaying
// shoulder next to lag 0 cannot win). It fails when no local maximum
// exists in the range.
func dominantLag(acf []float64, minLag, maxLag int) (int, error) {
	if minLag < 1 || maxLag >= len(acf) || minLag > maxLag {
		return 0, fmt.Errorf("lag range [%d, %d] invalid for acf of length %d", minLag, maxLag, len(acf))
	}
	best, bestVal := -1, math.Inf(-1)
	for k := minLag; k <= maxLag && k+1 < len(acf); k++ {
		if acf[k] >= acf[k-1] && acf[k] >= acf[k+1] && acf[k] > bestVal {
			best, bestVal = k, acf[k]
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no local autocorrelation maximum in [%d, %d]", minLag, maxLag)
	}
	return best, nil
}

// lombScargle evaluates the Lomb-Scargle normalised periodogram of
// irregularly sampled data at the given angular frequencies (rad/s), the
// classical astronomy answer to the paper's problem. The samples' mean is
// removed internally, and power is normalised by the sample variance, so
// white noise yields power ~1 per frequency.
func lombScargle(samples []dsp.Sample, omegas []float64) ([]float64, error) {
	n := len(samples)
	if n < 4 {
		return nil, dsp.ErrInsufficientData
	}
	if len(omegas) == 0 {
		return nil, errors.New("no frequencies requested")
	}
	mean := 0.0
	for _, s := range samples {
		mean += s.V
	}
	mean /= float64(n)
	var variance float64
	vs := make([]float64, n)
	ts := make([]float64, n)
	for i, s := range samples {
		vs[i] = s.V - mean
		ts[i] = s.T
		variance += vs[i] * vs[i]
	}
	variance /= float64(n - 1)
	if variance == 0 {
		return nil, errors.New("constant signal")
	}
	out := make([]float64, len(omegas))
	for i, w := range omegas {
		if w <= 0 {
			return nil, fmt.Errorf("non-positive angular frequency %v", w)
		}
		// tau makes the sinusoid basis orthogonal at this frequency.
		var s2, c2 float64
		for _, t := range ts {
			s2 += math.Sin(2 * w * t)
			c2 += math.Cos(2 * w * t)
		}
		tau := math.Atan2(s2, c2) / (2 * w)
		var cs, cc, ss, sc float64
		for j, t := range ts {
			ph := w * (t - tau)
			c := math.Cos(ph)
			s := math.Sin(ph)
			cs += vs[j] * c
			sc += vs[j] * s
			cc += c * c
			ss += s * s
		}
		p := 0.0
		if cc > 0 {
			p += cs * cs / cc
		}
		if ss > 0 {
			p += sc * sc / ss
		}
		out[i] = p / (2 * variance)
	}
	return out, nil
}

// lombScarglePeriod scans candidate periods in [minPeriod, maxPeriod]
// with the given step and returns the period with the highest
// Lomb-Scargle power.
func lombScarglePeriod(samples []dsp.Sample, minPeriod, maxPeriod, step float64) (float64, error) {
	if minPeriod <= 0 || maxPeriod < minPeriod || step <= 0 {
		return 0, fmt.Errorf("bad period scan [%v, %v] step %v", minPeriod, maxPeriod, step)
	}
	var periods, omegas []float64
	for p := minPeriod; p <= maxPeriod; p += step {
		periods = append(periods, p)
		omegas = append(omegas, 2*math.Pi/p)
	}
	power, err := lombScargle(samples, omegas)
	if err != nil {
		return 0, err
	}
	best := 0
	for i := 1; i < len(power); i++ {
		if power[i] > power[best] {
			best = i
		}
	}
	return periods[best], nil
}

func periodicSignal(n int, period float64, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 20 + 15*math.Sin(2*math.Pi*float64(i)/period) + rng.NormFloat64()*noise
	}
	return x
}

// syntheticSpeed builds irregular speed samples under a known schedule:
// high speed during green, near zero during red, with noise. interval is
// the mean gap between samples.
func syntheticSpeed(rng *rand.Rand, s lights.Schedule, t0, t1, interval float64) []dsp.Sample {
	var out []dsp.Sample
	t := t0 + rng.Float64()*interval
	for t < t1 {
		var v float64
		if s.StateAt(t) == lights.Green {
			v = 35 + rng.NormFloat64()*8
		} else {
			v = math.Max(0, 3+rng.NormFloat64()*3)
		}
		out = append(out, dsp.Sample{T: math.Floor(t), V: math.Max(0, v)})
		t += interval * (0.5 + rng.Float64())
	}
	return out
}

func TestIdentifyCycleACF(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sched := lights.Schedule{Cycle: 98, Red: 39}
	samples := syntheticSpeed(rng, sched, 0, 3600, 10)
	got, err := identifyCycleACF(samples, 0, 3600, core.DefaultCycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-98) > 4 {
		t.Fatalf("ACF cycle = %v, want ~98", got)
	}
}

func TestIdentifyCycleACFErrors(t *testing.T) {
	cfg := core.DefaultCycleConfig()
	if _, err := identifyCycleACF(nil, 0, 3600, cfg); !errors.Is(err, core.ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
	if _, err := identifyCycleACF(nil, 10, 10, cfg); err == nil {
		t.Fatal("empty window accepted")
	}
	bad := cfg
	bad.MinCycle = 0
	if _, err := identifyCycleACF(nil, 0, 3600, bad); err == nil {
		t.Fatal("bad config accepted")
	}
	// Window shorter than the minimum cycle band.
	short := []dsp.Sample{{T: 0, V: 1}, {T: 3, V: 2}, {T: 6, V: 3}, {T: 9, V: 4},
		{T: 12, V: 5}, {T: 15, V: 6}, {T: 18, V: 7}, {T: 21, V: 8}}
	if _, err := identifyCycleACF(short, 0, 24, cfg); err == nil {
		t.Fatal("too-short window accepted")
	}
}

func TestIdentifyCycleLombScargle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sched := lights.Schedule{Cycle: 98, Red: 39}
	samples := syntheticSpeed(rng, sched, 0, 3600, 15)
	got, err := identifyCycleLombScargle(samples, 0, 3600, core.DefaultCycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-98) > 4 {
		t.Fatalf("Lomb-Scargle cycle = %v, want ~98", got)
	}
	if _, err := identifyCycleLombScargle(nil, 0, 3600, core.DefaultCycleConfig()); !errors.Is(err, core.ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
	if _, err := identifyCycleLombScargle(nil, 5, 5, core.DefaultCycleConfig()); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestAutocorrelationBasics(t *testing.T) {
	x := periodicSignal(2000, 98, 0, 1)
	acf, err := autocorrelation(x, 300)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acf[0]-1) > 1e-9 {
		t.Fatalf("acf[0] = %v, want 1", acf[0])
	}
	// The lag-98 peak must be close to 1 for a pure tone.
	if acf[98] < 0.95 {
		t.Fatalf("acf[98] = %v, want ~1", acf[98])
	}
	// Anti-phase lag has strong negative correlation.
	if acf[49] > -0.8 {
		t.Fatalf("acf[49] = %v, want ~-1", acf[49])
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := autocorrelation(nil, 0); err == nil {
		t.Fatal("empty signal accepted")
	}
	if _, err := autocorrelation([]float64{1, 2, 3}, 3); err == nil {
		t.Fatal("maxLag >= n accepted")
	}
	if _, err := autocorrelation([]float64{1, 2, 3}, -1); err == nil {
		t.Fatal("negative maxLag accepted")
	}
}

func TestAutocorrelationConstantSignal(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 7
	}
	acf, err := autocorrelation(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	if acf[0] != 1 {
		t.Fatalf("acf[0] = %v", acf[0])
	}
	if !math.IsNaN(acf[5]) {
		t.Fatalf("constant signal acf[5] = %v, want NaN", acf[5])
	}
}

func TestAutocorrelationMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	acf, err := autocorrelation(x, 20)
	if err != nil {
		t.Fatal(err)
	}
	d := dsp.Detrend(x)
	var r0 float64
	for _, v := range d {
		r0 += v * v
	}
	for k := 0; k <= 20; k++ {
		var rk float64
		for i := 0; i+k < n; i++ {
			rk += d[i] * d[i+k]
		}
		if math.Abs(acf[k]-rk/r0) > 1e-9 {
			t.Fatalf("lag %d: fft %v vs direct %v", k, acf[k], rk/r0)
		}
	}
}

func TestDominantLagFindsPeriod(t *testing.T) {
	x := periodicSignal(3600, 106, 3, 3)
	acf, err := autocorrelation(x, 400)
	if err != nil {
		t.Fatal(err)
	}
	lag, err := dominantLag(acf, 40, 300)
	if err != nil {
		t.Fatal(err)
	}
	if lag < 104 || lag > 108 {
		t.Fatalf("dominant lag = %d, want ~106", lag)
	}
}

func TestDominantLagErrors(t *testing.T) {
	acf := []float64{1, 0.5, 0.2}
	if _, err := dominantLag(acf, 0, 2); err == nil {
		t.Fatal("minLag 0 accepted")
	}
	if _, err := dominantLag(acf, 1, 5); err == nil {
		t.Fatal("maxLag out of range accepted")
	}
	// Monotone decay: no local maximum.
	decay := make([]float64, 50)
	for i := range decay {
		decay[i] = 1 / (1 + float64(i))
	}
	if _, err := dominantLag(decay, 5, 40); err == nil {
		t.Fatal("no-peak acf accepted")
	}
}

func BenchmarkAutocorrelation3600(b *testing.B) {
	x := periodicSignal(3600, 98, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = autocorrelation(x, 400)
	}
}

func irregularPeriodic(n int, period float64, seed int64) []dsp.Sample {
	rng := rand.New(rand.NewSource(seed))
	var out []dsp.Sample
	t := 0.0
	for i := 0; i < n; i++ {
		t += 5 + rng.Float64()*30 // irregular 5-35 s gaps
		v := 20 + 15*math.Sin(2*math.Pi*t/period) + rng.NormFloat64()*3
		out = append(out, dsp.Sample{T: t, V: v})
	}
	return out
}

func TestLombScargleFindsPeriod(t *testing.T) {
	samples := irregularPeriodic(200, 98, 7)
	got, err := lombScarglePeriod(samples, 40, 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-98) > 2 {
		t.Fatalf("period = %v, want ~98", got)
	}
}

func TestLombScargleWhiteNoiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var samples []dsp.Sample
	t0 := 0.0
	for i := 0; i < 400; i++ {
		t0 += 5 + rng.Float64()*20
		samples = append(samples, dsp.Sample{T: t0, V: rng.NormFloat64()})
	}
	var omegas []float64
	for p := 50.0; p <= 200; p += 10 {
		omegas = append(omegas, 2*math.Pi/p)
	}
	power, err := lombScargle(samples, omegas)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range power {
		// Normalised white-noise power is ~Exp(1): values above ~15 are
		// astronomically unlikely.
		if p > 15 {
			t.Fatalf("noise power[%d] = %v", i, p)
		}
	}
}

func TestLombScargleErrors(t *testing.T) {
	few := []dsp.Sample{{T: 0, V: 1}, {T: 1, V: 2}}
	if _, err := lombScargle(few, []float64{1}); err == nil {
		t.Fatal("too-few samples accepted")
	}
	ok := irregularPeriodic(50, 98, 1)
	if _, err := lombScargle(ok, nil); err == nil {
		t.Fatal("no frequencies accepted")
	}
	if _, err := lombScargle(ok, []float64{-1}); err == nil {
		t.Fatal("negative frequency accepted")
	}
	constant := make([]dsp.Sample, 10)
	for i := range constant {
		constant[i] = dsp.Sample{T: float64(i * 10), V: 5}
	}
	if _, err := lombScargle(constant, []float64{0.1}); err == nil {
		t.Fatal("constant signal accepted")
	}
	if _, err := lombScarglePeriod(ok, 0, 100, 1); err == nil {
		t.Fatal("bad scan range accepted")
	}
}

func BenchmarkLombScargleScan(b *testing.B) {
	samples := irregularPeriodic(180, 98, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = lombScarglePeriod(samples, 40, 300, 1)
	}
}
