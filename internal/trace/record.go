// Package trace implements the taxi-trace data model of Table I in the
// paper — the 12-field record every Shenzhen taxi uploads — together with
// a CSV codec and the synthetic trace generator that samples the traffic
// simulator the way real onboard units sample taxis (fixed per-taxi
// intervals, GPS noise, packet loss, diurnal activity). The Fig. 2
// statistics of a trace are internal/experiments'.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// TimeLayout is the report-time format of Table I.
const TimeLayout = "2006-01-02 15:04:05"

// coordScale converts between degrees and the integer-microdegree wire
// encoding of Table I (longitude x 1000000).
const coordScale = 1e6

// Record is one taxi report, mirroring Table I field for field.
type Record struct {
	Plate     string    // 1: car plate number
	Lon       float64   // 2: longitude, degrees
	Lat       float64   // 3: latitude, degrees
	Time      time.Time // 4: report time
	DeviceID  int64     // 5: onboard device ID
	SpeedKMH  float64   // 6: driving speed, km/h
	Heading   float64   // 7: degrees to north, clockwise
	GPSOK     bool      // 8: GPS condition
	Overspeed bool      // 9: overspeed warning
	SIM       string    // 10: SIM card number
	Occupied  bool      // 11: passenger condition
	Color     string    // 12: taxi body colour
}

// Validate reports structural problems with the record.
func (r Record) Validate() error {
	switch {
	case r.Plate == "":
		return fmt.Errorf("trace: empty plate")
	case !(r.Lat >= -90 && r.Lat <= 90 && r.Lon >= -180 && r.Lon <= 180):
		// Negated form so NaN coordinates also fail the check.
		return fmt.Errorf("trace: coordinates (%v, %v) out of range", r.Lat, r.Lon)
	case !(r.SpeedKMH >= 0) || math.IsInf(r.SpeedKMH, 1):
		return fmt.Errorf("trace: bad speed %v", r.SpeedKMH)
	case !(r.Heading >= 0 && r.Heading < 360):
		return fmt.Errorf("trace: heading %v outside [0, 360)", r.Heading)
	case r.Time.IsZero():
		return fmt.Errorf("trace: zero report time")
	}
	return nil
}

func boolDigit(b bool) byte {
	if b {
		return '1'
	}
	return '0'
}

// AppendCSV appends the record's Table-I CSV line (no newline) to dst
// and returns the extended slice.
func (r Record) AppendCSV(dst []byte) []byte {
	dst = append(dst, r.Plate...)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(math.Round(r.Lon*coordScale)), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(math.Round(r.Lat*coordScale)), 10)
	dst = append(dst, ',')
	dst = appendTime(dst, r.Time)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, r.DeviceID, 10)
	dst = append(dst, ',')
	dst = appendTenths(dst, r.SpeedKMH, false)
	dst = append(dst, ',')
	dst = appendTenths(dst, r.Heading, true)
	dst = append(dst, ',', boolDigit(r.GPSOK), ',', boolDigit(r.Overspeed), ',')
	dst = append(dst, r.SIM...)
	dst = append(dst, ',', boolDigit(r.Occupied), ',')
	return append(dst, r.Color...)
}

// tenths returns x rounded to one decimal place, as a count of tenths:
// the digits strconv.AppendFloat(x, 'f', 1, 64) prints, dot removed. A
// float64 is mant x 2^exp exactly, so ten times it is an integer shifted
// right, and the bits shifted out say which way to round — to nearest,
// ties to even, on the exact binary value, which is what strconv does
// with a decimal big-number. ok is false where that integer arithmetic
// does not apply and the caller must use strconv: a set sign bit (so
// "-0.0" keeps its sign), NaN, +Inf and anything from 1e14 up.
func tenths(x float64) (n uint64, ok bool) {
	bits := math.Float64bits(x)
	if bits>>63 != 0 || !(x < 1e14) {
		return 0, false
	}
	mant := bits & (1<<52 - 1)
	exp := int(bits >> 52) // the sign bit is clear
	if exp == 0 {
		exp = 1 // subnormal: no implicit leading one
	} else {
		mant |= 1 << 52
	}
	// x = mant x 2^-shift; below 1e14 (< 2^47) shift is at least 6, and
	// 10 x mant fits in 57 bits.
	shift := uint(1075 - exp)
	scaled := 10 * mant
	if shift >= 64 {
		return 0, true // 10x < 2^57 x 2^-64, and the shifts below need a count under 64
	}
	n = scaled >> shift
	rem, half := scaled&(1<<shift-1), uint64(1)<<(shift-1)
	if rem > half || (rem == half && n&1 == 1) {
		n++
	}
	return n, true
}

// appendTenths appends x with exactly one decimal place, byte for byte
// what strconv.AppendFloat(dst, x, 'f', 1, 64) appends — with one
// exception when x is a heading: a valid heading in [359.95, 360) rounds
// to "360.0", which Validate rejects on the way back in, so the lenient
// scanner would drop a line whose record was sound. It is written as the
// direction it is, "0.0".
func appendTenths(dst []byte, x float64, heading bool) []byte {
	n, ok := tenths(x)
	if !ok {
		return strconv.AppendFloat(dst, x, 'f', 1, 64)
	}
	if heading && n == 3600 && x < 360 {
		n = 0
	}
	dst = strconv.AppendUint(dst, n/10, 10)
	return append(dst, '.', byte('0'+n%10))
}

// appendTime appends t in TimeLayout. The layout is fixed, so the fields
// come straight from Date and Clock instead of AppendFormat's walk over
// the layout string; a year that is not four digits is left to it.
func appendTime(dst []byte, t time.Time) []byte {
	year, month, day := t.Date()
	if year < 0 || year > 9999 {
		return t.AppendFormat(dst, TimeLayout)
	}
	hour, minute, sec := t.Clock()
	return append(dst,
		byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10), '-',
		byte('0'+int(month)/10), byte('0'+int(month)%10), '-',
		byte('0'+day/10), byte('0'+day%10), ' ',
		byte('0'+hour/10), byte('0'+hour%10), ':',
		byte('0'+minute/10), byte('0'+minute%10), ':',
		byte('0'+sec/10), byte('0'+sec%10))
}

// MarshalCSV renders the record as one Table-I CSV line (no newline). A
// line of the usual length is built on the stack and copied out once; a
// longer one spills to the heap inside append.
func (r Record) MarshalCSV() string {
	var buf [160]byte
	return string(r.AppendCSV(buf[:0]))
}

// Parse-error classes. Every malformed line maps to exactly one class so
// lenient consumers (Scanner in lenient mode) can account for skipped
// input by failure mode rather than a single opaque counter.
const (
	ClassFields  = "fields"  // wrong column count
	ClassCoord   = "coord"   // unparseable longitude/latitude
	ClassTime    = "time"    // unparseable report time
	ClassDevice  = "device"  // unparseable device ID
	ClassNumber  = "number"  // unparseable speed/heading
	ClassFlag    = "flag"    // boolean flag not 0/1
	ClassInvalid = "invalid" // parsed but structurally invalid (Validate)
	ClassOther   = "other"   // not a classified parse error
)

// Classes lists every parse-error class a lenient scanner can report, in
// stable order. Metric exporters use it to pre-register one series per
// class before the first malformed line arrives, so dashboards show an
// explicit zero rather than a missing series.
func Classes() []string {
	return []string{ClassFields, ClassCoord, ClassTime, ClassDevice,
		ClassNumber, ClassFlag, ClassInvalid, ClassOther}
}

// ParseError is a malformed-line error carrying a stable class tag.
type ParseError struct {
	Class string
	Err   error
}

// Error implements the error interface.
func (e *ParseError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ParseError) Unwrap() error { return e.Err }

// ClassOf returns the parse-error class of err, or ClassOther when err
// did not originate from record parsing.
func ClassOf(err error) string {
	var pe *ParseError
	if errors.As(err, &pe) {
		return pe.Class
	}
	return ClassOther
}

func parseErr(class, format string, args ...any) error {
	return &ParseError{Class: class, Err: fmt.Errorf(format, args...)}
}

// UnmarshalCSV parses one Table-I CSV line into the record. Failures are
// *ParseError values classified by failure mode, and leave the record as
// it was. The text fields share the line's memory.
func (r *Record) UnmarshalCSV(line string) error {
	return parseRecord(r, line, func(s string) string { return s })
}

// WriteCSV streams records to w, one per line.
func WriteCSV(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i, r := range recs {
		line = append(r.AppendCSV(line[:0]), '\n')
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("trace: write record %d: %w", i, err)
		}
	}
	return bw.Flush()
}
