package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func periodicSignal(n int, period float64, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 20 + 15*math.Sin(2*math.Pi*float64(i)/period) + rng.NormFloat64()*noise
	}
	return x
}

func TestAutocorrelationBasics(t *testing.T) {
	x := periodicSignal(2000, 98, 0, 1)
	acf, err := Autocorrelation(x, 300)
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
	if _, err := Autocorrelation(nil, 0); err == nil {
		t.Fatal("empty signal accepted")
	}
	if _, err := Autocorrelation([]float64{1, 2, 3}, 3); err == nil {
		t.Fatal("maxLag >= n accepted")
	}
	if _, err := Autocorrelation([]float64{1, 2, 3}, -1); err == nil {
		t.Fatal("negative maxLag accepted")
	}
}

func TestAutocorrelationConstantSignal(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 7
	}
	acf, err := Autocorrelation(x, 10)
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
	acf, err := Autocorrelation(x, 20)
	if err != nil {
		t.Fatal(err)
	}
	d := Detrend(x)
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
	acf, err := Autocorrelation(x, 400)
	if err != nil {
		t.Fatal(err)
	}
	lag, err := DominantLag(acf, 40, 300)
	if err != nil {
		t.Fatal(err)
	}
	if lag < 104 || lag > 108 {
		t.Fatalf("dominant lag = %d, want ~106", lag)
	}
}

func TestDominantLagErrors(t *testing.T) {
	acf := []float64{1, 0.5, 0.2}
	if _, err := DominantLag(acf, 0, 2); err == nil {
		t.Fatal("minLag 0 accepted")
	}
	if _, err := DominantLag(acf, 1, 5); err == nil {
		t.Fatal("maxLag out of range accepted")
	}
	// Monotone decay: no local maximum.
	decay := make([]float64, 50)
	for i := range decay {
		decay[i] = 1 / (1 + float64(i))
	}
	if _, err := DominantLag(decay, 5, 40); err == nil {
		t.Fatal("no-peak acf accepted")
	}
}

func TestWelchSpectrumPeak(t *testing.T) {
	// Period 64 samples -> with segLen 512 the peak sits at bin 8.
	x := periodicSignal(4096, 64, 2, 4)
	spec, err := WelchSpectrum(x, 512)
	if err != nil {
		t.Fatal(err)
	}
	best := 1
	for k := 2; k < len(spec); k++ {
		if spec[k] > spec[best] {
			best = k
		}
	}
	if best != 8 {
		t.Fatalf("Welch peak at bin %d, want 8", best)
	}
}

func TestWelchSpectrumErrors(t *testing.T) {
	x := make([]float64, 64)
	if _, err := WelchSpectrum(x, 2); err == nil {
		t.Fatal("tiny segment accepted")
	}
	if _, err := WelchSpectrum(x, 128); err == nil {
		t.Fatal("oversized segment accepted")
	}
}

func TestWelchReducesVariance(t *testing.T) {
	// For white noise, the Welch estimate's spread across bins is much
	// smaller than a single periodogram's.
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 8192)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	single := Magnitudes(FFTReal(x[:1024]))
	welch, err := WelchSpectrum(x, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cv := func(xs []float64) float64 {
		var m, s float64
		for _, v := range xs {
			m += v
		}
		m /= float64(len(xs))
		for _, v := range xs {
			s += (v - m) * (v - m)
		}
		return math.Sqrt(s/float64(len(xs))) / m
	}
	singlePow := make([]float64, 512)
	for k := 1; k <= 512; k++ {
		singlePow[k-1] = single[k] * single[k]
	}
	if cv(welch[1:513]) >= cv(singlePow) {
		t.Fatalf("Welch cv %.3f not below single periodogram cv %.3f",
			cv(welch[1:513]), cv(singlePow))
	}
}

func BenchmarkAutocorrelation3600(b *testing.B) {
	x := periodicSignal(3600, 98, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Autocorrelation(x, 400)
	}
}

func irregularPeriodic(n int, period float64, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	var out []Sample
	t := 0.0
	for i := 0; i < n; i++ {
		t += 5 + rng.Float64()*30 // irregular 5-35 s gaps
		v := 20 + 15*math.Sin(2*math.Pi*t/period) + rng.NormFloat64()*3
		out = append(out, Sample{T: t, V: v})
	}
	return out
}

func TestLombScargleFindsPeriod(t *testing.T) {
	samples := irregularPeriodic(200, 98, 7)
	got, err := LombScarglePeriod(samples, 40, 300, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-98) > 2 {
		t.Fatalf("period = %v, want ~98", got)
	}
}

func TestLombScargleWhiteNoiseFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var samples []Sample
	t0 := 0.0
	for i := 0; i < 400; i++ {
		t0 += 5 + rng.Float64()*20
		samples = append(samples, Sample{T: t0, V: rng.NormFloat64()})
	}
	var omegas []float64
	for p := 50.0; p <= 200; p += 10 {
		omegas = append(omegas, 2*math.Pi/p)
	}
	power, err := LombScargle(samples, omegas)
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
	few := []Sample{{T: 0, V: 1}, {T: 1, V: 2}}
	if _, err := LombScargle(few, []float64{1}); err == nil {
		t.Fatal("too-few samples accepted")
	}
	ok := irregularPeriodic(50, 98, 1)
	if _, err := LombScargle(ok, nil); err == nil {
		t.Fatal("no frequencies accepted")
	}
	if _, err := LombScargle(ok, []float64{-1}); err == nil {
		t.Fatal("negative frequency accepted")
	}
	constant := make([]Sample, 10)
	for i := range constant {
		constant[i] = Sample{T: float64(i * 10), V: 5}
	}
	if _, err := LombScargle(constant, []float64{0.1}); err == nil {
		t.Fatal("constant signal accepted")
	}
	if _, err := LombScarglePeriod(ok, 0, 100, 1); err == nil {
		t.Fatal("bad scan range accepted")
	}
}

func BenchmarkLombScargleScan(b *testing.B) {
	samples := irregularPeriodic(180, 98, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = LombScarglePeriod(samples, 40, 300, 1)
	}
}

func TestSTFTTracksPeriodChange(t *testing.T) {
	// First half period 64, second half period 128: the dominant-period
	// track must step accordingly.
	n := 8192
	x := make([]float64, n)
	for i := range x {
		p := 64.0
		if i >= n/2 {
			p = 128
		}
		x[i] = 20 + 15*math.Sin(2*math.Pi*float64(i)/p)
	}
	sg, err := STFT(x, 512, 256)
	if err != nil {
		t.Fatal(err)
	}
	track, err := sg.DominantPeriodTrack(32, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(track) != len(sg.Power) {
		t.Fatalf("track length %d vs %d frames", len(track), len(sg.Power))
	}
	// Early frames near 64, late frames near 128 (skip transition frames).
	if math.Abs(track[0]-64) > 8 {
		t.Fatalf("early period %v, want ~64", track[0])
	}
	last := track[len(track)-1]
	if math.Abs(last-128) > 16 {
		t.Fatalf("late period %v, want ~128", last)
	}
}

func TestSTFTErrors(t *testing.T) {
	x := make([]float64, 100)
	if _, err := STFT(x, 2, 10); err == nil {
		t.Fatal("tiny segment accepted")
	}
	if _, err := STFT(x, 200, 10); err == nil {
		t.Fatal("oversized segment accepted")
	}
	if _, err := STFT(x, 64, 0); err == nil {
		t.Fatal("zero hop accepted")
	}
	sg, err := STFT(x, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.DominantPeriodTrack(0, 10); err == nil {
		t.Fatal("bad period range accepted")
	}
}

func TestSTFTFrameBookkeeping(t *testing.T) {
	x := make([]float64, 1000)
	sg, err := STFT(x, 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Frames at 0, 128, 256, ..., last start <= 1000-256 = 744.
	want := 0
	for start := 0; start+256 <= 1000; start += 128 {
		if sg.FrameStart[want] != start {
			t.Fatalf("frame %d starts at %d, want %d", want, sg.FrameStart[want], start)
		}
		want++
	}
	if len(sg.Power) != want {
		t.Fatalf("frames = %d, want %d", len(sg.Power), want)
	}
}
