package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refUnmarshalCSV is the parser this package shipped before the
// byte-level one: strings.Split, strconv on each field, time.Parse. It
// is kept verbatim as the oracle the fuzzers below compare against.
func refUnmarshalCSV(r *Record, line string) error {
	f := strings.Split(line, ",")
	if len(f) != 12 {
		return parseErr(ClassFields, "trace: %d fields, want 12", len(f))
	}
	lonI, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return parseErr(ClassCoord, "trace: longitude: %w", err)
	}
	latI, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil {
		return parseErr(ClassCoord, "trace: latitude: %w", err)
	}
	ts, err := time.Parse(TimeLayout, f[3])
	if err != nil {
		return parseErr(ClassTime, "trace: time: %w", err)
	}
	dev, err := strconv.ParseInt(f[4], 10, 64)
	if err != nil {
		return parseErr(ClassDevice, "trace: device: %w", err)
	}
	speed, err := strconv.ParseFloat(f[5], 64)
	if err != nil {
		return parseErr(ClassNumber, "trace: speed: %w", err)
	}
	heading, err := strconv.ParseFloat(f[6], 64)
	if err != nil {
		return parseErr(ClassNumber, "trace: heading: %w", err)
	}
	parseBit := func(s, name string) (bool, error) {
		switch s {
		case "0":
			return false, nil
		case "1":
			return true, nil
		}
		return false, parseErr(ClassFlag, "trace: %s flag %q", name, s)
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
		Plate: f[0], Lon: float64(lonI) / coordScale, Lat: float64(latI) / coordScale,
		Time: ts, DeviceID: dev, SpeedKMH: speed, Heading: heading,
		GPSOK: gps, Overspeed: over, SIM: f[9], Occupied: occ, Color: f[11],
	}
	return nil
}

// sameRecord reports whether two records are equal field for field:
// times by instant and location, floats by bits (so -0 and NaN count).
func sameRecord(a, b Record) bool {
	bits := math.Float64bits
	return a.Plate == b.Plate && a.SIM == b.SIM && a.Color == b.Color &&
		bits(a.Lon) == bits(b.Lon) && bits(a.Lat) == bits(b.Lat) &&
		bits(a.SpeedKMH) == bits(b.SpeedKMH) && bits(a.Heading) == bits(b.Heading) &&
		a.Time.Equal(b.Time) && a.Time.Location() == b.Time.Location() &&
		a.DeviceID == b.DeviceID &&
		a.GPSOK == b.GPSOK && a.Overspeed == b.Overspeed && a.Occupied == b.Occupied
}

// fuzzLines seeds both fuzzers: good lines, each transport-corruption
// class of internal/faults (flip, delete, insert, truncate) applied by
// hand, and the shapes on which a positional parser and time.Parse or
// strconv could part ways.
func fuzzLines() []string {
	good := sampleRecord().MarshalCSV()
	with := func(field int, v string) string {
		f := strings.Split(good, ",")
		f[field] = v
		return strings.Join(f, ",")
	}
	lines := []string{
		good,
		good[:30] + "x" + good[31:],             // flip
		good[:30] + good[31:],                   // delete
		good[:30] + "\xff" + good[30:],          // insert
		good[:30],                               // truncate
		with(3, "2014-12-05 5:22:00"),           // 1-digit hour: time.Parse takes it
		with(3, "2014-12-05 15:22:00.5"),        // fractional seconds: so too
		with(3, "2014-12-05 15:22:00,5"),        // ... which adds a field here
		with(3, "2014-02-30 15:22:00"),          // day 30 of February
		with(3, "2016-02-29 00:00:00"),          // leap day
		with(3, "1900-02-29 00:00:00"),          // not a leap year
		with(3, "2014-04-30 15:22:00"),          // last day of a 30-day month
		with(3, "2014-04-31 15:22:00"),          // and the day after
		with(3, "2014-13-05 15:22:00"),          // month 13
		with(3, "2014-12-05 24:00:00"),          // hour 24
		with(3, "2014-12-05 15:60:00"),          // minute 60
		with(3, "2014-12-05 15:22:60"),          // second 60
		with(3, "0000-01-01 00:00:00"),          // year 0
		with(3, "2014-12-05T15:22:00"),          // wrong separator
		with(3, "2014-12-0515:22:00 "),          // right length, wrong shape
		with(3, "２014-12-05 15:22"),             // non-ASCII digit
		good + ",extra",                         // 13 fields
		good[:strings.LastIndexByte(good, ',')], // 11 fields
		"\u00a0" + good + "\u2003",              // non-ASCII whitespace around
		"\u0085" + good,                         // NEL, one Latin-1 byte in UTF-8
		good[:3] + "\x00" + good[3:],            // embedded NUL
		with(1, "+114125001"), with(1, "-0"),    // signed integers
		with(1, "9223372036854775807"),              // MaxInt64
		with(1, "9223372036854775808"),              // overflow
		with(1, "999999999999999999"),               // 18 digits
		with(1, "1_000"), with(1, ""), with(1, "-"), // not integers
		with(4, "0x10"), with(4, "１２"), // nor these
		with(5, "-0.0"), with(5, ".5"), with(5, "5."), // floats strconv reads
		with(5, "1e3"), with(5, "+1.5"), with(5, "NaN"), with(5, "inf"),
		with(5, "0x1p-2"), with(5, "1_0.5"), with(5, "."), with(5, "-"), with(5, "1.2.3"),
		with(5, "123456789012345.6"), with(5, "0.1234567890123456789"),
		with(5, "9007199254740993"), with(5, "000000000000000000001.5"),
		with(6, "1e400"), with(6, "4.9e-324"),
		with(7, "2"), with(7, ""), with(8, "01"), with(10, "１"),
		with(0, ""), with(0, strings.Repeat("P", 40)),
		"", ",", strings.Repeat(",", 11), strings.Repeat(",", 12),
	}
	for _, r := range streamRecords(4) {
		lines = append(lines, r.MarshalCSV())
	}
	return lines
}

// FuzzUnmarshalCSV holds the parser to the reference: the same lines
// accepted and rejected, the same class for a rejection, the same record
// for an acceptance, and a record left alone by a rejection.
func FuzzUnmarshalCSV(f *testing.F) {
	for _, l := range fuzzLines() {
		f.Add(l)
	}
	f.Fuzz(func(t *testing.T, line string) {
		var want, got Record
		wantErr := refUnmarshalCSV(&want, line)
		gotErr := got.UnmarshalCSV(line)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: reference err %v, parser err %v", line, wantErr, gotErr)
		}
		if wantErr != nil {
			if ClassOf(wantErr) != ClassOf(gotErr) {
				t.Fatalf("%q: reference class %s (%v), parser class %s (%v)",
					line, ClassOf(wantErr), wantErr, ClassOf(gotErr), gotErr)
			}
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("%q: reference says %q, parser says %q", line, wantErr, gotErr)
			}
			if got != (Record{}) {
				t.Fatalf("%q: rejected, but the record was written: %+v", line, got)
			}
			return
		}
		if !sameRecord(want, got) {
			t.Fatalf("%q:\nreference %+v\nparser    %+v", line, want, got)
		}
	})
}

// refScan is the scanner this package shipped before it owned its line
// buffer: bufio.Scanner lines, TrimSpace, the reference parser, and the
// lenient accounting. It returns what was delivered, the final counters
// and how the scan ended: nil, the reader's error, or errRefFatal for a
// malformed line (strict) or a blown budget (lenient).
func refScan(r io.Reader, lenient bool, cfg LenientConfig) (recs []Record, lines, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		lines++
		var rec Record
		err := refUnmarshalCSV(&rec, line)
		if err == nil && lenient {
			err = rec.Validate()
		}
		if err == nil {
			recs = append(recs, rec)
			continue
		}
		if !lenient {
			return recs, lines, skipped, errRefFatal
		}
		skipped++
		if lines >= cfg.MinLines && float64(skipped) > cfg.MaxBadFraction*float64(lines) {
			return recs, lines, skipped, errRefFatal
		}
	}
	return recs, lines, skipped, sc.Err()
}

var errRefFatal = errors.New("reference scan: fatal line")

// checkScan runs a Scanner and the reference scan over two readers of
// the same input and requires the same records, counters and ending,
// and Lines − Skipped records delivered.
func checkScan(t *testing.T, open func() io.Reader, lenient bool, cfg LenientConfig) {
	t.Helper()
	want, wantLines, wantSkipped, wantErr := refScan(open(), lenient, cfg)
	sc := NewScanner(open())
	if lenient {
		sc.SetLenient(cfg)
	}
	var got []Record
	for sc.Scan() {
		got = append(got, sc.Record())
	}
	st, err := sc.Stats(), sc.Err()
	// A strict scan's fatal line is counted but neither skipped nor delivered.
	if st.Lines-st.Skipped != len(got) && (lenient || err == nil) {
		t.Fatalf("lenient=%v: %d lines − %d skipped, but %d records delivered", lenient, st.Lines, st.Skipped, len(got))
	}
	if (err != nil) != (wantErr != nil) || (wantErr != nil && wantErr != errRefFatal && !errors.Is(err, wantErr)) {
		t.Fatalf("lenient=%v: err %v, reference %v", lenient, err, wantErr)
	}
	if st.Lines != wantLines || st.Skipped != wantSkipped {
		t.Fatalf("lenient=%v: lines %d skipped %d, reference %d and %d", lenient, st.Lines, st.Skipped, wantLines, wantSkipped)
	}
	if len(got) != len(want) {
		t.Fatalf("lenient=%v: %d records, reference %d", lenient, len(got), len(want))
	}
	for i := range got {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("lenient=%v record %d:\nreference %+v\nscanner   %+v", lenient, i, want[i], got[i])
		}
	}
}

// FuzzScanner feeds whole inputs through a strict and a lenient Scanner
// and holds them to the reference scan — read in one piece and, to move
// the line buffer's seams, a few bytes at a time.
func FuzzScanner(f *testing.F) {
	lines := fuzzLines()
	f.Add([]byte(strings.Join(lines, "\n")), uint8(0))
	f.Add([]byte(strings.Join(lines, "\r\n")+"\r\n"), uint8(7))
	f.Add([]byte("\n\n \n"+lines[0]+"\n\n\r\n"+lines[0]), uint8(1))
	f.Add([]byte(buildFeed(40, []string{"garbage", "x,y"})), uint8(3))
	f.Fuzz(func(t *testing.T, input []byte, chunk uint8) {
		open := func() io.Reader {
			if chunk == 0 {
				return bytes.NewReader(input)
			}
			return &chunkReader{data: input, n: int(chunk)}
		}
		cfg := LenientConfig{MaxBadFraction: 0.5, MinLines: 4}
		checkScan(t, open, false, cfg)
		checkScan(t, open, true, cfg)
	})
}

// chunkReader hands out its data n bytes at a time.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(c.n, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// TestErrorPrecedence holds the one-pass parser to the reference where a
// bad field and a wrong field count meet on one line, and at the edges of
// a field's fast path: the field count must win with the reference's
// words, and a field's own error must come out as the reference words it.
// The Scanner is held to the same lines, CRLF-terminated and not.
func TestErrorPrecedence(t *testing.T) {
	good := sampleRecord().MarshalCSV()
	f := strings.Split(good, ",")
	with := func(fields []string, i int, v string) []string {
		out := slices.Clone(fields)
		out[i] = v
		return out
	}
	join := func(fields []string) string { return strings.Join(fields, ",") }
	cases := map[string]string{
		"11 fields, bad longitude":   join(with(f[:11], 1, "11x4")),
		"11 fields, bad colour cut":  join(f[:11]),
		"13 fields, bad time":        join(with(append(slices.Clone(f), "x"), 3, "2014-12-05 25:00:00")),
		"13 fields, comma in colour": good[:len(good)-3] + "," + good[len(good)-3:],
		"13 fields, bad flag":        join(with(append(slices.Clone(f), "x"), 7, "2")),
		"12 fields, bad time":        join(with(f, 3, "2014-12-05 25:00:00")),
		"time cut by a comma":        join(with(f[:11], 3, "2014-12-05,15:22:00")),
		"time one byte short":        join(with(f, 3, "2014-12-05 15:22:0")),
		"trailing comma":             good + ",",
		"empty last field, 12":       join(with(f, 11, "")),
		"trailing CR":                good + "\r",
		"plus-signed longitude":      join(with(f, 1, "+114125001")),
		"plus-signed device":         join(with(f, 4, "+900001")),
		"19-digit latitude":          join(with(f, 2, "1234567890123456789")),
		"19-digit device, 11 fields": join(with(f[:11], 4, "1234567890123456789")),
		"18-digit device":            join(with(f, 4, "123456789012345678")),
		"minus alone":                join(with(f, 1, "-")),
		"empty longitude":            join(with(f, 1, "")),
		"16-digit speed":             join(with(f, 5, "1234567890123456")),
		"speed with two points":      join(with(f, 5, "1.2.3")),
		"bad heading, 11 fields":     join(with(f[:11], 6, "north")),
		"bad passenger flag":         join(with(f, 10, "yes")),
		"bad passenger, 13 fields":   join(with(append(slices.Clone(f), "x"), 10, "yes")),
		"empty colour":               join(with(f, 11, "")),
		"only commas":                strings.Repeat(",", 11),
		"one field":                  "B12345",
		"ends on a field's comma":    join(f[:5]) + ",",
	}
	for name, line := range cases {
		t.Run(name, func(t *testing.T) {
			var want, got Record
			wantErr := refUnmarshalCSV(&want, line)
			gotErr := got.UnmarshalCSV(line)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && (ClassOf(wantErr) != ClassOf(gotErr) || wantErr.Error() != gotErr.Error())) {
				t.Fatalf("%q: parser %s %v, reference %s %v", line, ClassOf(gotErr), gotErr, ClassOf(wantErr), wantErr)
			}
			if wantErr == nil && !sameRecord(want, got) {
				t.Fatalf("%q:\nreference %+v\nparser    %+v", line, want, got)
			}
			for _, end := range []string{"\n", "\r\n"} {
				input := good + end + line + end
				open := func() io.Reader { return strings.NewReader(input) }
				cfg := LenientConfig{MaxBadFraction: 1, MinLines: 1}
				checkScan(t, open, false, cfg)
				checkScan(t, open, true, cfg)
				// The strict scanner fails on the line the reference
				// rejects, in the reference's words.
				var refErr error
				if trimmed := strings.TrimSpace(line); trimmed != "" {
					refErr = refUnmarshalCSV(&want, trimmed)
				}
				sc := NewScanner(open())
				for sc.Scan() {
				}
				if refErr == nil {
					if sc.Err() != nil {
						t.Fatalf("%q: scanner %v, reference accepts", input, sc.Err())
					}
					continue
				}
				if wantMsg := "line 2: " + refErr.Error(); sc.Err() == nil || sc.Err().Error() != wantMsg || ClassOf(sc.Err()) != ClassOf(refErr) {
					t.Fatalf("%q: scanner %v (%s), want %q (%s)", input, sc.Err(), ClassOf(sc.Err()), wantMsg, ClassOf(refErr))
				}
			}
		})
	}
}
