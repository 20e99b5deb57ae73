package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"
	"unsafe"
)

// fleetFeed renders n lines from taxis distinct vehicles, each with its
// own plate and SIM.
func fleetFeed(n, taxis int) []byte {
	var buf []byte
	for i, r := range streamRecords(n) {
		r.Plate = fmt.Sprintf("B%05d", i%taxis)
		r.SIM = fmt.Sprintf("138%08d", i%taxis)
		buf = append(r.AppendCSV(buf), '\n')
	}
	return buf
}

// loopReader serves its data over and over.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// TestScanAllocsPerRecord: once every taxi of the fleet has been seen,
// a record costs no allocation between the reader and Record.
func TestScanAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const lines = 2000
	sc := NewLenientScanner(&loopReader{data: fleetFeed(lines, 200)}, DefaultLenientConfig())
	for i := 0; i < lines; i++ {
		if !sc.Scan() {
			t.Fatalf("warm-up stopped at %d: %v", i, sc.Err())
		}
	}
	var last Record
	allocs := testing.AllocsPerRun(lines, func() {
		if !sc.Scan() {
			t.Fatal(sc.Err())
		}
		last = sc.Record()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per record, want 0", allocs)
	}
	if last.Plate == "" || last.Validate() != nil {
		t.Fatalf("last record %+v", last)
	}
}

// TestUnmarshalCSVAllocs: the string entry shares the line's memory, so
// it allocates nothing either.
func TestUnmarshalCSVAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	line := sampleRecord().MarshalCSV()
	var r Record
	if allocs := testing.AllocsPerRun(100, func() {
		if err := r.UnmarshalCSV(line); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per line, want 0", allocs)
	}
}

// BenchmarkUnmarshalCSV times the string entry of the one parser on the
// lines of a warmed fleet feed.
func BenchmarkUnmarshalCSV(b *testing.B) {
	lines := strings.Split(strings.TrimSuffix(string(fleetFeed(2000, 200)), "\n"), "\n")
	var r Record
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.UnmarshalCSV(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScan times the lenient Scanner per record, line reading and
// interning included, once every taxi of the fleet has been seen.
func BenchmarkScan(b *testing.B) {
	sc := NewLenientScanner(&loopReader{data: fleetFeed(2000, 200)}, DefaultLenientConfig())
	for i := 0; i < 2000; i++ {
		sc.Scan()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sc.Scan() {
			b.Fatal(sc.Err())
		}
	}
}

// TestLineReader holds the scanner's own line reader to bufio.Scanner's
// behaviour at every seam the rewrite could have moved: reads of one
// byte and of halves, data arriving with the EOF, a read error behind a
// partial line, no final newline, CRLF, runs of blank lines, and lines
// of exactly the 4 MB ceiling and one byte over it.
func TestLineReader(t *testing.T) {
	good := sampleRecord().MarshalCSV()
	pad := func(n int) string { return strings.Repeat("x", n) }
	errBroken := errors.New("broken pipe")
	inputs := map[string]string{
		"plain":                                  good + "\n" + good + "\n",
		"no final newline":                       good + "\n" + good,
		"crlf":                                   good + "\r\n" + good + "\r\n",
		"cr only at the end":                     good + "\r",
		"blank runs":                             "\n\n\n" + good + "\n\n \t\n\r\n" + good + "\n\n\n",
		"only blanks":                            "\n\r\n  \n",
		"empty":                                  "",
		"bad line between":                       good + "\ngarbage\n" + good + "\n",
		"feed":                                   buildFeed(300, []string{"garbage", "x,y", pad(70000)}),
		"line at the ceiling, terminated":        good + "\n" + pad(maxLineBytes-1) + "\n" + good + "\n",
		"line one over the ceiling":              good + "\n" + pad(maxLineBytes) + "\n" + good + "\n",
		"last line just under, unterminated":     good + "\n" + pad(maxLineBytes-1),
		"last line at the ceiling, unterminated": good + "\n" + pad(maxLineBytes),
	}
	readers := map[string]func(io.Reader) io.Reader{
		"whole":         func(r io.Reader) io.Reader { return r },
		"one byte":      iotest.OneByteReader,
		"halves":        iotest.HalfReader,
		"data with eof": iotest.DataErrReader,
		"error after":   func(r io.Reader) io.Reader { return io.MultiReader(r, iotest.ErrReader(errBroken)) },
	}
	cfg := LenientConfig{MaxBadFraction: 0.9, MinLines: 2}
	for iname, input := range inputs {
		for rname, wrap := range readers {
			if rname == "one byte" && len(input) > 1<<20 {
				continue // the oracle rescans its buffer after every read: quadratic
			}
			t.Run(iname+"/"+rname, func(t *testing.T) {
				open := func() io.Reader { return wrap(strings.NewReader(input)) }
				checkScan(t, open, false, cfg)
				checkScan(t, open, true, cfg)
			})
		}
	}

	// Beyond agreeing with the oracle, spelled out: past the ceiling the
	// scan is fatal with bufio.ErrTooLong, at it the line is one more
	// malformed line.
	sc := NewLenientScanner(strings.NewReader(inputs["line one over the ceiling"]), cfg)
	n := 0
	for sc.Scan() {
		n++
	}
	if n != 1 || !errors.Is(sc.Err(), bufio.ErrTooLong) {
		t.Fatalf("over the ceiling: %d records, err %v", n, sc.Err())
	}
	sc = NewLenientScanner(strings.NewReader(inputs["line at the ceiling, terminated"]), cfg)
	for n = 0; sc.Scan(); n++ {
	}
	if st := sc.Stats(); n != 2 || sc.Err() != nil || st.Skipped != 1 || st.ByClass[ClassFields] != 1 {
		t.Fatalf("at the ceiling: %d records, err %v, stats %+v", n, sc.Err(), st)
	}
}

// TestReadErrorSurfaces: a reader's error comes back from Err bare,
// after the lines that arrived before it.
func TestReadErrorSurfaces(t *testing.T) {
	errBroken := errors.New("broken pipe")
	good := sampleRecord().MarshalCSV()
	sc := NewScanner(io.MultiReader(strings.NewReader(good+"\n"+good), iotest.ErrReader(errBroken)))
	n := 0
	for sc.Scan() {
		n++
	}
	if n != 2 || sc.Err() != errBroken {
		t.Fatalf("%d records, err %v", n, sc.Err())
	}
	sc = NewScanner(&stuckReader{})
	if sc.Scan() || sc.Err() != io.ErrNoProgress {
		t.Fatalf("reader that never progresses: err %v", sc.Err())
	}
}

type stuckReader struct{}

func (*stuckReader) Read([]byte) (int, error) { return 0, nil }

// stepReader serves one prepared chunk per Read and counts the reads.
type stepReader struct {
	chunks []string
	reads  int
}

func (s *stepReader) Read(p []byte) (int, error) {
	if len(s.chunks) == 0 {
		return 0, io.EOF
	}
	s.reads++
	n := copy(p, s.chunks[0])
	if s.chunks[0] = s.chunks[0][n:]; s.chunks[0] == "" {
		s.chunks = s.chunks[1:]
	}
	return n, nil
}

// TestScanBufferedNeverReads: ScanBuffered delivers what is buffered,
// skipping what a lenient Scan would skip, and says false instead of
// going to the reader.
func TestScanBufferedNeverReads(t *testing.T) {
	recs := streamRecords(4)
	l := func(i int) string { return recs[i].MarshalCSV() + "\n" }
	src := &stepReader{chunks: []string{
		l(0) + l(1) + "garbage\n\n" + l(2)[:20],
		l(2)[20:],
		l(3)[:len(l(3))-1], // the last line has no terminator
	}}
	sc := NewLenientScanner(src, LenientConfig{MaxBadFraction: 0.9, MinLines: 100})
	step := func(buffered, want bool, dev int64, reads int) {
		t.Helper()
		got := false
		if buffered {
			got = sc.ScanBuffered()
		} else {
			got = sc.Scan()
		}
		if got != want || src.reads != reads || (got && sc.Record().DeviceID != dev) {
			t.Fatalf("buffered=%v: got %v (device %d) after %d reads, want %v (device %d) after %d",
				buffered, got, sc.Record().DeviceID, src.reads, want, dev, reads)
		}
	}
	step(true, false, 0, 0)  // nothing buffered yet
	step(false, true, 0, 1)  // Scan reads the first chunk
	step(true, true, 1, 1)   // its second line
	step(true, false, 0, 1)  // the bad line and the blank are consumed, the partial line waits
	step(true, false, 0, 1)  // still
	step(false, true, 2, 2)  // Scan completes it
	step(true, false, 0, 2)  // nothing more without a read
	step(false, true, 3, 3)  // the unterminated last line needs the EOF to be a line
	step(true, false, 0, 3)  // end of stream
	step(false, false, 0, 3) // and Scan agrees
	if st := sc.Stats(); sc.Err() != nil || st.Lines != 5 || st.Skipped != 1 {
		t.Fatalf("err %v, stats %+v", sc.Err(), st)
	}
}

// plateFeed generates n lines with n distinct plates without holding
// them all.
type plateFeed struct {
	n, next int
	rec     Record
	pending []byte
}

func (p *plateFeed) Read(b []byte) (int, error) {
	if len(p.pending) == 0 {
		if p.next == p.n {
			return 0, io.EOF
		}
		p.rec.Plate = "P" + strconv.Itoa(p.next)
		p.rec.Time = p.rec.Time.Add(time.Second)
		p.next++
		p.pending = append(p.rec.AppendCSV(p.pending[:0]), '\n')
	}
	n := copy(b, p.pending)
	p.pending = p.pending[n:]
	return n, nil
}

// TestInternTableBounded: a feed that mints a new plate on every line
// does not grow the scanner, and the strings it handed out earlier are
// still what they were after the table has been emptied many times.
func TestInternTableBounded(t *testing.T) {
	n := 1_000_000
	if testing.Short() || raceEnabled {
		n = 4 * internEntries
	}
	sc := NewScanner(&plateFeed{n: n, rec: sampleRecord()})
	heap := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}
	var early []Record
	var before float64
	count := 0
	for sc.Scan() {
		if count < 100 {
			early = append(early, sc.Record())
		}
		if count++; count == internEntries {
			before = heap() // the table is as full as it gets
		}
		if len(sc.intern) > internEntries {
			t.Fatalf("intern table holds %d entries, bound %d", len(sc.intern), internEntries)
		}
	}
	if sc.Err() != nil || count != n {
		t.Fatalf("%d of %d records, err %v", count, n, sc.Err())
	}
	after := heap()
	runtime.KeepAlive(sc)
	if grown := after - before; grown > 4 {
		t.Fatalf("heap grew %.1f MB over %d distinct plates (%.1f → %.1f MB)", grown, n, before, after)
	}
	for i, r := range early {
		if want := "P" + strconv.Itoa(i); r.Plate != want || r.SIM != "13800001234" || r.Color != "yellow" {
			t.Fatalf("record %d lost its strings: %+v", i, r)
		}
	}
	// A field too long to be a plate is delivered but not kept.
	long := strings.Repeat("Q", internFieldLen+1)
	r := sampleRecord()
	r.Plate = long
	sc = NewScanner(strings.NewReader(r.MarshalCSV() + "\n"))
	if !sc.Scan() || sc.Record().Plate != long {
		t.Fatalf("long plate: %+v, err %v", sc.Record(), sc.Err())
	}
	if _, kept := sc.intern[long]; kept {
		t.Fatal("a field over internFieldLen was interned")
	}
}

// TestAppendCSVMatchesJoin: AppendCSV is byte for byte the rendering
// MarshalCSV used to build with strings.Join.
func TestAppendCSVMatchesJoin(t *testing.T) {
	bit := func(b bool) string {
		if b {
			return "1"
		}
		return "0"
	}
	join := func(r Record) string {
		return strings.Join([]string{
			r.Plate,
			strconv.FormatInt(int64(math.Round(r.Lon*coordScale)), 10),
			strconv.FormatInt(int64(math.Round(r.Lat*coordScale)), 10),
			r.Time.Format(TimeLayout),
			strconv.FormatInt(r.DeviceID, 10),
			strconv.FormatFloat(r.SpeedKMH, 'f', 1, 64),
			strconv.FormatFloat(r.Heading, 'f', 1, 64),
			bit(r.GPSOK), bit(r.Overspeed), r.SIM, bit(r.Occupied), r.Color,
		}, ",")
	}
	f := func(plate, sim, color string, lon, lat, speed, heading float64, dev, sec int64, gps, over, occ bool) bool {
		r := Record{Plate: plate, Lon: lon, Lat: lat, Time: time.Unix(sec%4e9, 0).UTC(), DeviceID: dev,
			SpeedKMH: speed, Heading: heading, GPSOK: gps, Overspeed: over, SIM: sim, Occupied: occ, Color: color}
		prefix := []byte("kept,")
		out := r.AppendCSV(prefix)
		return r.MarshalCSV() == join(r) && bytes.HasPrefix(out, prefix) && string(out[len(prefix):]) == join(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestScannedPlateOwnsItsBytes: a record's plate is a string of its own,
// never a view of the scanner's line buffer, whether the intern table
// keeps it, it is too long to keep, or the table has just been emptied.
// Whoever keeps a plate (the realtime engine's plate table does) therefore
// pins no line and needs no copy of its own.
func TestScannedPlateOwnsItsBytes(t *testing.T) {
	long := strings.Repeat("L", internFieldLen+1)
	plateOf := func(i int) string {
		switch {
		case i%5 == 0:
			return long + strconv.Itoa(i%3) // never interned
		case i%5 == 1:
			return "B" + strconv.Itoa(i%40) // interned once, then hit
		}
		return "P" + strconv.Itoa(i) // minted: fills the table until it empties
	}
	n := 2 * internEntries
	var feed []byte
	r := sampleRecord()
	for i := 0; i < n; i++ {
		r.Plate = plateOf(i)
		feed = append(r.AppendCSV(feed), '\n')
	}
	sc := NewScanner(bytes.NewReader(feed))
	resets, kinds, held := 0, map[int]int{}, 0
	for i := 0; sc.Scan(); i++ {
		rec := sc.Record()
		if rec.Plate != plateOf(i) {
			t.Fatalf("line %d: plate %q, want %q", i, rec.Plate, plateOf(i))
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(sc.buf)))
		if p := uintptr(unsafe.Pointer(unsafe.StringData(rec.Plate))); p >= lo && p < lo+uintptr(len(sc.buf)) {
			t.Fatalf("line %d: plate %q aliases the line buffer", i, rec.Plate)
		}
		kinds[i%5]++
		if len(sc.intern) < held {
			resets++
		}
		held = len(sc.intern)
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
		t.Fatalf("not every plate kind was scanned: %v", kinds)
	}
	if resets == 0 {
		t.Fatalf("%d lines never emptied the intern table: the reset path is untested", n)
	}
}

// TestInternAllocsPerSlab: a feed of n distinct plates and as many
// distinct SIMs costs the scanner a slab per few hundred fields, not a
// string per field. Every string handed out stays what it was through
// later writes to its slab and through an emptied table, and once the
// scanner and its records are dropped the slabs are collected.
func TestInternAllocsPerSlab(t *testing.T) {
	n := internEntries // 2n fields: the table empties once
	r := sampleRecord()
	var feed []byte
	for i := 0; i < n; i++ {
		r.Plate, r.SIM = "P"+strconv.Itoa(i), strconv.Itoa(13800000000+i)
		feed = append(r.AppendCSV(feed), '\n')
	}
	var collected atomic.Int32
	func() {
		sc := NewScanner(bytes.NewReader(feed))
		recs := make([]Record, 0, n)
		var firstSlab *byte
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for sc.Scan() {
			recs = append(recs, sc.Record())
			if firstSlab == nil {
				firstSlab = unsafe.StringData(sc.slab.String())
			}
		}
		runtime.ReadMemStats(&after)
		if sc.Err() != nil || len(recs) != n {
			t.Fatalf("%d of %d records, err %v", len(recs), n, sc.Err())
		}
		if allocs, budget := after.Mallocs-before.Mallocs, uint64(n/64+64); !raceEnabled && allocs > budget {
			t.Errorf("%d distinct plates and SIMs cost %d allocations, budget %d", n, allocs, budget)
		}
		if len(sc.intern) >= 2*n {
			t.Fatalf("the table holds all %d fields: the reset path is untested", len(sc.intern))
		}
		for i, r := range recs {
			if r.Plate != "P"+strconv.Itoa(i) || r.SIM != strconv.Itoa(13800000000+i) || r.Color != "yellow" {
				t.Fatalf("record %d lost its strings: %+v", i, r)
			}
		}
		// A slab's bytes start where its first string does. Watch the first
		// slab and the newest, which the scanner still writes to.
		lastSlab := unsafe.StringData(sc.slab.String())
		if firstSlab == nil || firstSlab == lastSlab {
			t.Fatalf("first slab %p, newest %p: want two slabs", firstSlab, lastSlab)
		}
		for _, p := range []*byte{firstSlab, lastSlab} {
			runtime.SetFinalizer(p, func(*byte) { collected.Add(1) })
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 slabs collected after the scanner was dropped", collected.Load())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
