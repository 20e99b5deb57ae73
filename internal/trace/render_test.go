package trace

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// checkTenths holds appendTenths to strconv for one input, as a speed and
// as a heading; the one documented difference is a valid heading that
// rounds to 360.0, which is written 0.0.
func checkTenths(t *testing.T, x float64) {
	t.Helper()
	want := string(strconv.AppendFloat(nil, x, 'f', 1, 64))
	if got := string(appendTenths(nil, x, false)); got != want {
		t.Fatalf("appendTenths(%v [%#x]) = %q, strconv %q", x, math.Float64bits(x), got, want)
	}
	if want == "360.0" && x < 360 {
		want = "0.0"
	}
	if got := string(appendTenths(nil, x, true)); got != want {
		t.Fatalf("appendTenths(%v [%#x], heading) = %q, want %q", x, math.Float64bits(x), got, want)
	}
}

// tenthsEdges are the inputs where an integer formatter and strconv
// could part ways: signed zeros, subnormals, the smallest values that
// round up, exact ties either side of an even digit, the fallback
// boundary, and the non-numbers.
func tenthsEdges() []float64 {
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023,
		0.04, 0.05, 0.0500000000000001, 0.15, 0.25, 0.35, 0.45, 0.5, 0.75, 0.95, 1,
		9.95, 9.949999999999999, 99.95, 359.9, 359.94, 359.95, 359.97, 360, 360.04,
		0x1p-5, 0x1p-6, 0x1p-7, 3 * 0x1p-6, 0.125, 0.375, 2.5, 1e14, 1e14 - 0.5, 99999999999999.94,
		99999999999999.95, 1e15, 1e300, math.MaxFloat64, -0.04, -1.25, -359.97,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Nextafter(360, 0), math.Nextafter(359.95, 0), math.Nextafter(359.95, 360),
	}
	// Every exact tie k + 1/4 and k + 3/4 in tenths has a neighbour on
	// either side one ulp away.
	for _, k := range []float64{0, 1, 2, 7, 10, 63, 100, 1023, 4096, 1e6, 1 << 40} {
		for _, q := range []float64{0.25, 0.75} {
			x := (k + q) / 2 // tenths (k+q)*5 is ...25 or ...75: a tie when exact
			edges = append(edges, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
		}
	}
	return edges
}

func TestAppendTenthsMatchesStrconv(t *testing.T) {
	for _, x := range tenthsEdges() {
		checkTenths(t, x)
	}
	n := 400_000
	if testing.Short() {
		n = 40_000
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0: // any bit pattern
			checkTenths(t, math.Float64frombits(rng.Uint64()))
		case 1: // the range speeds and headings live in
			checkTenths(t, rng.Float64()*400)
		case 2: // on and beside a multiple of 1/20, where the ties are
			x := float64(rng.Intn(8000)) / 20
			checkTenths(t, math.Float64frombits(math.Float64bits(x)+uint64(rng.Intn(5))-2))
		case 3: // every magnitude below the fallback
			checkTenths(t, math.Ldexp(rng.Float64(), rng.Intn(120)-70))
		}
	}
}

// FuzzAppendTenths searches the float64 bit patterns for one appendTenths
// and strconv.AppendFloat(x, 'f', 1, 64) render differently.
func FuzzAppendTenths(f *testing.F) {
	for _, x := range tenthsEdges() {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkTenths(t, math.Float64frombits(bits))
	})
}

func TestAppendTimeMatchesAppendFormat(t *testing.T) {
	zones := []*time.Location{
		time.UTC,
		time.FixedZone("CST", 8*3600),
		time.FixedZone("NPT", 5*3600+45*60),
		time.FixedZone("MART", -(9*3600 + 30*60)),
		time.FixedZone("LINT", 14*3600),
		time.FixedZone("odd", -(11*3600 + 59*60 + 59)),
	}
	check := func(ts time.Time) {
		t.Helper()
		want := string(ts.AppendFormat(nil, TimeLayout))
		if got := string(appendTime(nil, ts)); got != want {
			t.Fatalf("appendTime(%v) = %q, AppendFormat %q", ts, got, want)
		}
	}
	for _, loc := range zones {
		// Both ends of every year's range, leap days, and the years whose
		// digit count is not four.
		for _, y := range []int{-1, 0, 1, 9, 10, 99, 100, 999, 1000, 1900, 2000, 2014, 2016, 9999, 10000, 12345} {
			check(time.Date(y, 1, 1, 0, 0, 0, 0, loc))
			check(time.Date(y, 2, 29, 12, 30, 30, 999999999, loc))
			check(time.Date(y, 12, 31, 23, 59, 59, 0, loc))
		}
	}
	first := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	last := time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC).Unix()
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 300_000; i++ {
		sec := first + rng.Int63n(last-first+1)
		check(time.Unix(sec, rng.Int63n(1e9)).In(zones[i%len(zones)]))
	}
}

// TestValidRecordRendersValid: whatever passes Validate renders to a line
// that parses back to a record that passes Validate — in particular a
// heading in [359.95, 360), which one decimal place rounds to 360.0.
func TestValidRecordRendersValid(t *testing.T) {
	randomValidRecords(t, func(rec Record) {
		line := rec.MarshalCSV()
		var back Record
		if err := back.UnmarshalCSV(line); err != nil {
			t.Fatalf("heading %v: %q does not parse: %v", rec.Heading, line, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("heading %v: %q parses to an invalid record: %v", rec.Heading, line, err)
		}
		if d := math.Abs(back.Heading - rec.Heading); d > 0.05+1e-9 && d < 359.95-1e-9 {
			t.Fatalf("heading %v came back as %v", rec.Heading, back.Heading)
		}
	})
	// The wrap is the heading's alone, and only a valid heading's.
	rec := sampleRecord()
	field := func(r Record, i int) string { return strings.Split(r.MarshalCSV(), ",")[i] }
	rec.SpeedKMH, rec.Heading = 359.97, 359.97
	if s, h := field(rec, 5), field(rec, 6); s != "360.0" || h != "0.0" {
		t.Fatalf("speed and heading 359.97 render %q and %q, want 360.0 and 0.0", s, h)
	}
	rec.Heading = 360
	if h := field(rec, 6); h != "360.0" {
		t.Fatalf("the invalid heading 360 renders %q, want it left as 360.0", h)
	}
}

// TestMarshalCSVAllocs: MarshalCSV is AppendCSV's bytes as a string, for
// one allocation — the string — on a line of any usual length, and still
// those bytes on a line longer than its stack buffer.
func TestMarshalCSVAllocs(t *testing.T) {
	randomValidRecords(t, func(rec Record) {
		if got, want := rec.MarshalCSV(), string(rec.AppendCSV(nil)); got != want {
			t.Fatalf("MarshalCSV %q, AppendCSV %q", got, want)
		}
	})
	rec := sampleRecord()
	if n := testing.AllocsPerRun(200, func() { _ = rec.MarshalCSV() }); n != 1 {
		t.Errorf("MarshalCSV allocates %v times per call, want 1", n)
	}
	rec.Plate = strings.Repeat("B", 400)
	if got, want := rec.MarshalCSV(), string(rec.AppendCSV(nil)); got != want || len(got) < 400 {
		t.Fatalf("a long line: MarshalCSV %q, AppendCSV %q", got, want)
	}
}

// randomValidRecords hands fn 200 000 records that pass Validate, drawn
// over the whole range of every field the renderer rounds.
func randomValidRecords(t *testing.T, fn func(Record)) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	rec := sampleRecord()
	for i := 0; i < 200_000; i++ {
		switch i % 4 {
		case 0:
			rec.Heading = rng.Float64() * 360
		case 1:
			rec.Heading = 359.9 + rng.Float64()*0.1
		case 2:
			rec.Heading = math.Nextafter(360, 0) - float64(rng.Intn(1000))*0x1p-44
		case 3:
			rec.Heading = float64(rng.Intn(7200)) / 20
		}
		rec.SpeedKMH = rng.Float64() * 400
		rec.Lon = rng.Float64()*360 - 180
		rec.Lat = rng.Float64()*180 - 90
		if err := rec.Validate(); err != nil {
			t.Fatalf("generated an invalid record: %v", err)
		}
		fn(rec)
	}
}
