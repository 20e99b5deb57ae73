package lights

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScheduleValidate(t *testing.T) {
	good := Schedule{Cycle: 98, Red: 39}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schedule{
		{Cycle: 0, Red: 10},
		{Cycle: -5, Red: 1},
		{Cycle: 98, Red: 0},
		{Cycle: 98, Red: 98},
		{Cycle: 98, Red: 120},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %+v accepted", s)
		}
	}
}

func TestScheduleStateAt(t *testing.T) {
	// The Fig. 10/11 light: cycle 98 s, red 39 s, green 59 s.
	s := Schedule{Cycle: 98, Red: 39, Offset: 0}
	cases := []struct {
		t    float64
		want State
	}{
		{0, Red}, {38.9, Red}, {39, Green}, {97.9, Green},
		{98, Red}, {98 + 39, Green}, {-1, Green}, {-60, Red},
	}
	for _, c := range cases {
		if got := s.StateAt(c.t); got != c.want {
			t.Errorf("StateAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if g := s.Green(); g != 59 {
		t.Fatalf("Green = %v", g)
	}
}

func TestSchedulePhaseOffset(t *testing.T) {
	s := Schedule{Cycle: 100, Red: 40, Offset: 25}
	if p := s.PhaseAt(25); p != 0 {
		t.Fatalf("PhaseAt(offset) = %v", p)
	}
	if p := s.PhaseAt(125); p != 0 {
		t.Fatalf("PhaseAt(offset+cycle) = %v", p)
	}
	if p := s.PhaseAt(24); math.Abs(p-99) > 1e-9 {
		t.Fatalf("PhaseAt(24) = %v, want 99", p)
	}
}

func TestNextGreenAndWait(t *testing.T) {
	s := Schedule{Cycle: 100, Red: 40}
	if g := s.NextGreen(10); g != 40 {
		t.Fatalf("NextGreen(10) = %v", g)
	}
	if g := s.NextGreen(50); g != 50 {
		t.Fatalf("NextGreen during green = %v", g)
	}
	if w := s.WaitAt(39); math.Abs(w-1) > 1e-9 {
		t.Fatalf("WaitAt(39) = %v", w)
	}
	if w := s.WaitAt(150); w != 0 {
		t.Fatalf("WaitAt(150) = %v", w)
	}
}

func TestOpposedAntiPhase(t *testing.T) {
	s := Schedule{Cycle: 98, Red: 39, Offset: 11}
	o := s.Opposed()
	if o.Cycle != s.Cycle {
		t.Fatal("cycle differs")
	}
	if o.Red != s.Green() {
		t.Fatalf("opposed red = %v, want %v", o.Red, s.Green())
	}
	// Whenever s is green, o must be red, and vice versa — sampled densely.
	for tt := 0.0; tt < 400; tt += 0.5 {
		if s.StateAt(tt) == o.StateAt(tt) {
			t.Fatalf("both approaches %v at t=%v", s.StateAt(tt), tt)
		}
	}
}

func TestOpposedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cycle := 40 + rng.Float64()*260
		red := 5 + rng.Float64()*(cycle-10)
		s := Schedule{Cycle: cycle, Red: red, Offset: rng.Float64() * 1000}
		o := s.Opposed()
		for i := 0; i < 50; i++ {
			tt := rng.Float64() * 5000
			if s.StateAt(tt) == o.StateAt(tt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStateFractionsProperty(t *testing.T) {
	// Over many cycles, the fraction of red samples approximates Red/Cycle.
	s := Schedule{Cycle: 106, Red: 63, Offset: 17}
	red := 0
	n := 106 * 100
	for i := 0; i < n; i++ {
		if s.StateAt(float64(i)+0.5) == Red {
			red++
		}
	}
	frac := float64(red) / float64(n)
	if math.Abs(frac-63.0/106) > 0.01 {
		t.Fatalf("red fraction = %v, want %v", frac, 63.0/106)
	}
}

func TestStaticController(t *testing.T) {
	c := Static{S: Schedule{Cycle: 120, Red: 60}}
	if got := c.ScheduleAt(999); got != c.S {
		t.Fatal("static schedule changed")
	}
	if ch := c.Changes(0, 1e6); ch != nil {
		t.Fatalf("static reported changes: %v", ch)
	}
}

func TestNewDynamicValidation(t *testing.T) {
	ok := []PlanEntry{
		{DaySecond: 6 * 3600, S: Schedule{Cycle: 90, Red: 40}},
		{DaySecond: 22 * 3600, S: Schedule{Cycle: 60, Red: 30}},
	}
	if _, err := NewDynamic(ok); err != nil {
		t.Fatal(err)
	}
	bad := [][]PlanEntry{
		nil,
		{{DaySecond: -1, S: Schedule{Cycle: 90, Red: 40}}},
		{{DaySecond: 90000, S: Schedule{Cycle: 90, Red: 40}}},
		{{DaySecond: 100, S: Schedule{Cycle: 90, Red: 40}}, {DaySecond: 100, S: Schedule{Cycle: 80, Red: 40}}},
		{{DaySecond: 100, S: Schedule{Cycle: 0, Red: 0}}},
	}
	for i, p := range bad {
		if _, err := NewDynamic(p); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

func TestDynamicScheduleAt(t *testing.T) {
	peak := Schedule{Cycle: 150, Red: 80}
	offPeak := Schedule{Cycle: 90, Red: 40}
	c, err := NewDynamic([]PlanEntry{
		{DaySecond: 7 * 3600, S: peak},     // 07:00 peak
		{DaySecond: 10 * 3600, S: offPeak}, // 10:00 off-peak
		{DaySecond: 17 * 3600, S: peak},    // 17:00 peak
		{DaySecond: 20 * 3600, S: offPeak}, // 20:00 off-peak
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		daySec float64
		want   Schedule
	}{
		{3 * 3600, offPeak}, // early morning wraps to last entry
		{8 * 3600, peak},
		{12 * 3600, offPeak},
		{18 * 3600, peak},
		{23 * 3600, offPeak},
	}
	for _, cse := range cases {
		if got := c.ScheduleAt(cse.daySec); got != cse.want {
			t.Errorf("ScheduleAt(%v h) = %+v, want %+v", cse.daySec/3600, got, cse.want)
		}
		// Same hour on day 2 should match (daily repetition).
		if got := c.ScheduleAt(cse.daySec + 86400); got != cse.want {
			t.Errorf("day-2 ScheduleAt(%v h) differs", cse.daySec/3600)
		}
	}
}

func TestDynamicChanges(t *testing.T) {
	peak := Schedule{Cycle: 150, Red: 80}
	offPeak := Schedule{Cycle: 90, Red: 40}
	c, _ := NewDynamic([]PlanEntry{
		{DaySecond: 7 * 3600, S: peak},
		{DaySecond: 10 * 3600, S: offPeak},
	})
	ch := c.Changes(0, 2*86400)
	want := []float64{7 * 3600, 10 * 3600, 86400 + 7*3600, 86400 + 10*3600}
	if len(ch) != len(want) {
		t.Fatalf("Changes = %v, want %v", ch, want)
	}
	for i := range want {
		if ch[i] != want[i] {
			t.Fatalf("Changes = %v, want %v", ch, want)
		}
	}
	if got := c.Changes(100, 100); got != nil {
		t.Fatal("empty window should give nil")
	}
	// Window excluding all switches.
	if got := c.Changes(11*3600, 12*3600); got != nil {
		t.Fatalf("no-switch window gave %v", got)
	}
}

func TestDynamicChangesSkipsNoopSwitch(t *testing.T) {
	s := Schedule{Cycle: 90, Red: 40}
	c, _ := NewDynamic([]PlanEntry{
		{DaySecond: 7 * 3600, S: s},
		{DaySecond: 10 * 3600, S: s}, // same schedule: not a real change
	})
	if ch := c.Changes(0, 86400); ch != nil {
		t.Fatalf("noop switches reported: %v", ch)
	}
}

func TestIntersectionApproaches(t *testing.T) {
	x := &Intersection{ID: 1, Ctrl: Static{S: Schedule{Cycle: 98, Red: 39}}}
	for tt := 0.0; tt < 300; tt += 1 {
		ns := x.StateFor(NorthSouth, tt)
		ew := x.StateFor(EastWest, tt)
		if ns == ew {
			t.Fatalf("approaches agree at t=%v: both %v", tt, ns)
		}
	}
	nsSched := x.ScheduleFor(NorthSouth, 0)
	ewSched := x.ScheduleFor(EastWest, 0)
	if nsSched.Cycle != ewSched.Cycle {
		t.Fatal("approaches have different cycle lengths")
	}
}

func TestStrings(t *testing.T) {
	if Red.String() != "red" || Green.String() != "green" {
		t.Fatal("State strings")
	}
	if NorthSouth.String() != "NS" || EastWest.String() != "EW" {
		t.Fatal("Approach strings")
	}
}

func BenchmarkStateAt(b *testing.B) {
	s := Schedule{Cycle: 98, Red: 39, Offset: 13}
	for i := 0; i < b.N; i++ {
		_ = s.StateAt(float64(i))
	}
}

func BenchmarkDynamicScheduleAt(b *testing.B) {
	c, _ := NewDynamic([]PlanEntry{
		{DaySecond: 7 * 3600, S: Schedule{Cycle: 150, Red: 80}},
		{DaySecond: 10 * 3600, S: Schedule{Cycle: 90, Red: 40}},
		{DaySecond: 17 * 3600, S: Schedule{Cycle: 150, Red: 80}},
		{DaySecond: 20 * 3600, S: Schedule{Cycle: 90, Red: 40}},
	})
	for i := 0; i < b.N; i++ {
		_ = c.ScheduleAt(float64(i % 86400))
	}
}
