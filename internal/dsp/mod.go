package dsp

import "math"

// Mod is math.Mod, bit for bit. math.Mod reduces by shift-and-subtract
// through software frexp/ldexp — about a fifth of a replay's CPU when the
// fold ran it per sample per candidate cycle, and a seventh of a tape
// render under lights.Schedule.PhaseAt; this is a division, a truncation
// and one fused multiply-add. The quotient of two doubles, rounded, is the
// true truncated quotient n or one step further from zero, as long as it
// is below 2^53; x − q·y is then the remainder or the remainder one |y|
// past zero, both exactly representable, so the FMA's single rounding
// changes nothing and one exact correction finishes. Everything else —
// a quotient of 2^53 or more, a zero, infinite or NaN operand — goes to
// math.Mod.
func Mod(x, y float64) float64 {
	y = math.Abs(y)
	q := math.Trunc(x / y)
	if !(math.Abs(q) < 1<<53) || math.IsInf(y, 1) {
		return math.Mod(x, y)
	}
	r := math.FMA(-q, y, x)
	switch {
	case x > 0 && r < 0:
		r += y
	case x < 0 && r > 0:
		r -= y
	}
	if r == 0 {
		return math.Copysign(0, x) // math.Mod's zero carries the sign of x
	}
	return r
}
