package trace

import (
	"errors"
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
// after ln is overwritten.
//
// The line is read once, front to back: a number is decoded as its
// digits are passed on the way to the comma that ends its field. A field
// of any other shape goes to strconv or time.Parse, which decide it and
// word the error; they get string(f), which stays off the heap for fields
// of ordinary length because those functions let their argument escape
// only into an error.
func parseRecord[L bytestring](r *Record, ln L, text func(L) string) error {
	c := cursor[L]{ln: ln}
	plate := c.field()
	lonI := c.int(ClassCoord, "longitude")
	latI := c.int(ClassCoord, "latitude")
	ts := c.time()
	dev := c.int(ClassDevice, "device")
	speed := c.float("speed")
	heading := c.float("heading")
	gps := c.bit("gps")
	over := c.bit("overspeed")
	sim := c.field()
	occ := c.bit("passenger")
	color := c.rest()
	if c.err != nil {
		return c.error()
	}
	*r = Record{
		Plate: text(plate), Lon: float64(lonI) / coordScale, Lat: float64(latI) / coordScale,
		Time: ts, DeviceID: dev, SpeedKMH: speed, Heading: heading,
		GPSOK: gps, Overspeed: over, SIM: text(sim), Occupied: occ, Color: text(color),
	}
	return nil
}

// cursor walks a line one field at a time; i is where the next field
// starts. Each reader returns its field's value and steps past the comma
// that ends it. The first field that does not read is kept in err, worded
// as class and what say (class "" when err is worded already), and every
// reader after it returns a zero value.
type cursor[L bytestring] struct {
	ln          L
	i           int
	err         error
	class, what string
}

// errShort marks a field the line ends before its comma, or a last field
// with a comma in it: either way the line does not hold 12 fields, so
// error answers with the count and this error is never seen.
var errShort = errors.New("trace: line ends early")

// error is the line's error: the field count's when the line does not
// hold 12 fields, whatever else is wrong with it, else the first field's.
func (c *cursor[L]) error() error {
	n := 1
	for i := 0; i < len(c.ln); i++ {
		if c.ln[i] == ',' {
			n++
		}
	}
	switch {
	case n != 12:
		return parseErr(ClassFields, "trace: %d fields, want 12", n)
	case c.class == "":
		return c.err
	}
	return parseErr(c.class, "trace: %s: %w", c.what, c.err)
}

// end is the index of the comma that ends the field at c.i, or len(ln).
func (c *cursor[L]) end() int {
	j := c.i
	for j < len(c.ln) && c.ln[j] != ',' {
		j++
	}
	return j
}

// field returns the field at c.i as it is.
func (c *cursor[L]) field() L {
	if c.err != nil {
		return c.ln[:0]
	}
	j := c.end()
	if j == len(c.ln) {
		c.err = errShort
		return c.ln[:0]
	}
	f := c.ln[c.i:j]
	c.i = j + 1
	return f
}

// rest returns the last field, the rest of the line.
func (c *cursor[L]) rest() L {
	if c.err == nil && c.end() != len(c.ln) {
		c.err = errShort
	}
	return c.ln[c.i:]
}

// int reads an integer field: an optional '-' and 1-18 digits cannot
// overflow and are decoded in passing; strconv.ParseInt(f, 10, 64)
// decides anything else.
func (c *cursor[L]) int(class, what string) int64 {
	ln, j := c.ln, c.i
	neg := j < len(ln) && ln[j] == '-'
	if neg {
		j++
	}
	first := j
	var n int64
	for ; j < len(ln); j++ {
		d := ln[j] - '0'
		if d > 9 {
			break
		}
		n = n*10 + int64(d)
	}
	if digits := j - first; c.err == nil && j < len(ln) && ln[j] == ',' && digits > 0 && digits <= 18 {
		c.i = j + 1
		if neg {
			n = -n
		}
		return n
	}
	f := c.field()
	if c.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(f), 10, 64)
	if err != nil {
		c.err, c.class, c.what = err, class, what
	}
	return n
}

// float reads a decimal field, strconv.ParseFloat(f, 64). Plain decimals
// of at most 15 digits — every speed and heading a taxi sends — are exact
// as an integer over a power of ten, the same division strconv's own fast
// path makes, so the result is correctly rounded; strconv decides the
// rest.
func (c *cursor[L]) float(what string) float64 {
	ln, j := c.ln, c.i
	neg := j < len(ln) && ln[j] == '-'
	if neg {
		j++
	}
	var mant uint64
	digits, frac := 0, -1 // frac counts digits behind the point, -1 before it
loop:
	for ; j < len(ln); j++ {
		switch d := ln[j]; {
		case d-'0' <= 9:
			mant = mant*10 + uint64(d-'0')
			digits++
			if frac >= 0 {
				frac++
			}
		case d == '.' && frac < 0:
			frac = 0
		default:
			break loop
		}
	}
	if c.err == nil && j < len(ln) && ln[j] == ',' && digits > 0 && digits < len(pow10) {
		c.i = j + 1
		x := float64(mant)
		if frac > 0 {
			x /= pow10[frac]
		}
		if neg {
			x = -x
		}
		return x
	}
	f := c.field()
	if c.err != nil {
		return 0
	}
	x, err := strconv.ParseFloat(string(f), 64)
	if err != nil {
		c.err, c.class, c.what = err, ClassNumber, what
	}
	return x
}

var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// bit reads a 0/1 flag field.
func (c *cursor[L]) bit(name string) bool {
	ln, j := c.ln, c.i
	if c.err == nil && j+1 < len(ln) && ln[j+1] == ',' && (ln[j] == '0' || ln[j] == '1') {
		c.i = j + 2
		return ln[j] == '1'
	}
	if f := c.field(); c.err == nil {
		c.err = parseErr(ClassFlag, "trace: %s flag %q", name, string(f))
	}
	return false
}

// time reads a report time. A field of the canonical shape is decoded by
// position; time.Parse reads anything else, as it accepts more than the
// layout shows (a one-digit hour, fractional seconds), and words the
// errors.
func (c *cursor[L]) time() time.Time {
	if j := c.i + len(TimeLayout); c.err == nil && j < len(c.ln) && c.ln[j] == ',' {
		if t, ok := canonicalTime(c.ln[c.i:j]); ok {
			c.i = j + 1
			return t
		}
	}
	f := c.field()
	if c.err != nil {
		return time.Time{}
	}
	t, err := time.Parse(TimeLayout, string(f))
	if err != nil {
		c.err, c.class, c.what = err, ClassTime, "time"
	}
	return t
}

// canonicalTime decodes the canonical shape — 19 bytes, "YYYY-MM-DD
// hh:mm:ss", every component in range — by position into the value
// time.Parse(TimeLayout, v) returns for it. ok is false for anything else.
func canonicalTime[L bytestring](v L) (time.Time, bool) {
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
			return time.Date(year, time.Month(month), day, hour, min, sec, 0, time.UTC), true
		}
	}
	return time.Time{}, false
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
