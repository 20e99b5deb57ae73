package trace

import (
	"strconv"
	"strings"
	"time"
)

// bytestring is what the one Table-I parser reads: a slice of the
// Scanner's own buffer, or the string UnmarshalCSV was given.
type bytestring interface{ ~string | ~[]byte }

// parseRecord parses one Table-I CSV line into r exactly as given (the
// Scanner trims first), leaving r untouched on failure. text turns a
// text field (plate, SIM, colour) into a string the record may keep
// after ln is overwritten. Where a field falls back to strconv or
// time.Parse it passes string(f), which stays off the heap for fields of
// ordinary length because those functions let their argument escape
// only into an error.
func parseRecord[L bytestring](r *Record, ln L, text func(L) string) error {
	var f [12]L
	n, start := 0, 0
	for i := 0; i < len(ln); i++ {
		if ln[i] == ',' {
			if n < len(f) {
				f[n] = ln[start:i]
			}
			n++
			start = i + 1
		}
	}
	if n < len(f) {
		f[n] = ln[start:]
	}
	n++
	if n != len(f) {
		return parseErr(ClassFields, "trace: %d fields, want 12", n)
	}
	lonI, err := parseInt(f[1])
	if err != nil {
		return parseErr(ClassCoord, "trace: longitude: %w", err)
	}
	latI, err := parseInt(f[2])
	if err != nil {
		return parseErr(ClassCoord, "trace: latitude: %w", err)
	}
	ts, err := parseTime(f[3])
	if err != nil {
		return parseErr(ClassTime, "trace: time: %w", err)
	}
	dev, err := parseInt(f[4])
	if err != nil {
		return parseErr(ClassDevice, "trace: device: %w", err)
	}
	speed, err := parseFloat(f[5])
	if err != nil {
		return parseErr(ClassNumber, "trace: speed: %w", err)
	}
	heading, err := parseFloat(f[6])
	if err != nil {
		return parseErr(ClassNumber, "trace: heading: %w", err)
	}
	gps, err := parseBit(f[7], "gps")
	if err != nil {
		return err
	}
	over, err := parseBit(f[8], "overspeed")
	if err != nil {
		return err
	}
	occ, err := parseBit(f[10], "passenger")
	if err != nil {
		return err
	}
	*r = Record{
		Plate: text(f[0]), Lon: float64(lonI) / coordScale, Lat: float64(latI) / coordScale,
		Time: ts, DeviceID: dev, SpeedKMH: speed, Heading: heading,
		GPSOK: gps, Overspeed: over, SIM: text(f[9]), Occupied: occ, Color: text(f[11]),
	}
	return nil
}

// parseInt is strconv.ParseInt(v, 10, 64). An optional sign and up to 18
// digits cannot overflow and are read in place; strconv decides the rest
// and words every error.
func parseInt[L bytestring](v L) (int64, error) {
	d := v
	neg := len(d) > 0 && d[0] == '-'
	if neg || (len(d) > 0 && d[0] == '+') {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 18 {
		return strconv.ParseInt(string(v), 10, 64)
	}
	var n int64
	for i := 0; i < len(d); i++ {
		c := d[i] - '0'
		if c > 9 {
			return strconv.ParseInt(string(v), 10, 64)
		}
		n = n*10 + int64(c)
	}
	if neg {
		n = -n
	}
	return n, nil
}

// parseFloat is strconv.ParseFloat(v, 64). Plain decimals of at most 15
// digits — every speed and heading a taxi sends — are exact as an integer
// over a power of ten, the same division strconv's own fast path makes,
// so the result is correctly rounded; strconv decides the rest.
func parseFloat[L bytestring](v L) (float64, error) {
	d := v
	neg := len(d) > 0 && d[0] == '-'
	if neg {
		d = d[1:]
	}
	var mant uint64
	digits, frac := 0, -1 // frac counts digits behind the point, -1 before it
	for i := 0; i < len(d); i++ {
		switch c := d[i]; {
		case c-'0' <= 9:
			mant = mant*10 + uint64(c-'0')
			digits++
			if frac >= 0 {
				frac++
			}
		case c == '.' && frac < 0:
			frac = 0
		default:
			return strconv.ParseFloat(string(v), 64)
		}
	}
	if digits == 0 || digits >= len(pow10) {
		return strconv.ParseFloat(string(v), 64)
	}
	x := float64(mant)
	if frac > 0 {
		x /= pow10[frac]
	}
	if neg {
		x = -x
	}
	return x, nil
}

var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

func parseBit[L bytestring](v L, name string) (bool, error) {
	if len(v) == 1 && (v[0] == '0' || v[0] == '1') {
		return v[0] == '1', nil
	}
	return false, parseErr(ClassFlag, "trace: %s flag %q", name, string(v))
}

// parseTime reads a report time. The canonical shape — 19 bytes,
// "YYYY-MM-DD hh:mm:ss", every component in range — is decoded by
// position into the value time.Parse(TimeLayout, v) returns for it.
// Anything else goes to time.Parse, which accepts more than the layout
// shows (a one-digit hour, fractional seconds) and words the errors.
func parseTime[L bytestring](v L) (time.Time, error) {
	if len(v) == 19 && v[4] == '-' && v[7] == '-' && v[10] == ' ' && v[13] == ':' && v[16] == ':' {
		century, ok0 := twoDigits(v, 0)
		yy, ok1 := twoDigits(v, 2)
		month, ok2 := twoDigits(v, 5)
		day, ok3 := twoDigits(v, 8)
		hour, ok4 := twoDigits(v, 11)
		min, ok5 := twoDigits(v, 14)
		sec, ok6 := twoDigits(v, 17)
		year := century*100 + yy
		if ok0 && ok1 && ok2 && ok3 && ok4 && ok5 && ok6 &&
			1 <= month && month <= 12 && 1 <= day && day <= daysIn(month, year) &&
			hour < 24 && min < 60 && sec < 60 {
			return time.Date(year, time.Month(month), day, hour, min, sec, 0, time.UTC), nil
		}
	}
	return time.Parse(TimeLayout, string(v))
}

func twoDigits[L bytestring](v L, i int) (int, bool) {
	a, b := v[i]-'0', v[i+1]-'0'
	return int(a)*10 + int(b), a <= 9 && b <= 9
}

func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// Interning bounds. A Scanner's table holds at most internEntries
// strings of at most internFieldLen bytes each, a few MB at worst: room
// for the paper's 28 k plates and 28 k SIM numbers plus the colours, so
// on a real fleet it fills once and then only answers. The strings are
// carved from slabs of internSlabBytes, a few hundred fields to one
// allocation.
const (
	internEntries   = 1 << 16
	internFieldLen  = 32
	internSlabBytes = 4 << 10
)

// internTable maps the bytes of a text field to one shared string, so a
// taxi's plate, SIM and colour are carved from a slab on its first report
// and not copied again. When a feed mints more distinct values than the
// table holds it is emptied and refilled: such a feed costs a slab per few
// hundred new values and never unbounded memory. Strings already handed
// out stay valid; each is a view of a slab no one writes behind it.
type internTable map[string]string

// get returns b's string. A new field is appended to slab, a Builder that
// is grown once to internSlabBytes and then only appended to, so the bytes
// behind every string it has handed out never move or change; a field that
// does not fit starts a new slab and leaves the old one to its strings.
func (t internTable) get(slab *strings.Builder, b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	if len(b) > internFieldLen {
		return string(b)
	}
	if len(t) >= internEntries {
		clear(t)
	}
	if slab.Cap()-slab.Len() < len(b) {
		slab.Reset()
		slab.Grow(internSlabBytes)
	}
	at := slab.Len()
	slab.Write(b)
	s := slab.String()[at:]
	t[s] = s
	return s
}
