package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether two floats are the same value bit for bit,
// any NaN equal to any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestModMatchesMathMod: Mod is math.Mod bit for bit — over the operands a
// fold produces, over the edge cases where the rounded quotient is one off
// (remainders next to zero and next to |y|), and over operands it hands
// back to math.Mod.
func TestModMatchesMathMod(t *testing.T) {
	check := func(x, y float64) {
		t.Helper()
		if got, want := Mod(x, y), math.Mod(x, y); !sameBits(got, want) {
			t.Fatalf("Mod(%v, %v) = %v (%#x), math.Mod gives %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	special := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 3, -3, 90, 1800, 86400,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, 1 << 52, 1 << 53, 1<<53 + 2, 0x1p600, 0x1p-600,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for _, x := range special {
		for _, y := range special {
			check(x, y)
		}
	}
	rng := rand.New(rand.NewSource(41))
	nudge := func(v float64, ulps int) float64 {
		for ; ulps > 0; ulps-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		for ; ulps < 0; ulps++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		return v
	}
	const pairs = 1_200_000
	for i := 0; i < pairs; i++ {
		var x, y float64
		switch i % 6 {
		case 0: // what a fold sees: seconds into a window over a cycle
			x, y = rng.Float64()*7200-1800, 20+rng.Float64()*300
		case 1: // exact multiples and their neighbours, either sign
			y = 20 + rng.Float64()*300
			x = nudge(y*float64(rng.Intn(4000)-2000), rng.Intn(5)-2)
		case 2: // subnormal remainders: a subnormal step past a multiple
			y = math.Ldexp(1+rng.Float64(), -1022+rng.Intn(40))
			x = y*float64(rng.Intn(2000)-1000) + math.Ldexp(float64(rng.Intn(1<<20)), -1074)
		case 3: // any two finite doubles
			x, y = math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())
		case 4: // wide magnitudes, quotients on both sides of 2^53
			x = math.Ldexp(rng.Float64()*2-1, rng.Intn(140)-40)
			y = math.Ldexp(rng.Float64()*2-1, rng.Intn(80)-40)
		case 5: // integers, where exact multiples are common
			x, y = float64(rng.Intn(1<<30)-1<<29), float64(rng.Intn(1<<12)-1<<11)
		}
		check(x, y)
	}
}

func FuzzMod(f *testing.F) {
	f.Add(100.0, 90.0)
	f.Add(-270.0, 90.0)
	f.Add(0x1p53, 3.0)
	f.Add(5e-324, 0x1p-1022)
	f.Add(math.Inf(1), 1.0)
	f.Fuzz(func(t *testing.T, x, y float64) {
		if got, want := Mod(x, y), math.Mod(x, y); !sameBits(got, want) {
			t.Fatalf("Mod(%v, %v) = %v, math.Mod gives %v", x, y, got, want)
		}
	})
}

func BenchmarkMod(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = rng.Float64() * 1800
	}
	for _, bc := range []struct {
		name string
		fn   func(x, y float64) float64
	}{{"Mod", Mod}, {"math.Mod", math.Mod}} {
		b.Run(bc.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += bc.fn(xs[i&1023], 97.3)
			}
			_ = sink
		})
	}
}
