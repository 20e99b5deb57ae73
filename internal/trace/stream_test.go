package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func streamRecords(n int) []Record {
	base := sampleRecord()
	out := make([]Record, n)
	for i := range out {
		r := base
		r.DeviceID = int64(i)
		r.Time = base.Time.Add(time.Duration(i) * 15 * time.Second)
		out[i] = r
	}
	return out
}

func TestScannerStreamsAll(t *testing.T) {
	recs := streamRecords(100)
	var sb strings.Builder
	if err := WriteCSV(&sb, recs); err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(strings.NewReader(sb.String()))
	n := 0
	for sc.Scan() {
		if sc.Record().DeviceID != int64(n) {
			t.Fatalf("record %d out of order: %d", n, sc.Record().DeviceID)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("scanned %d records, want 100", n)
	}
}

func TestScannerStopsOnMalformed(t *testing.T) {
	input := sampleRecord().MarshalCSV() + "\ngarbage\n"
	sc := NewScanner(strings.NewReader(input))
	if !sc.Scan() {
		t.Fatal("first record not scanned")
	}
	if sc.Scan() {
		t.Fatal("garbage scanned")
	}
	if err := sc.Err(); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
	// Scan after error stays false.
	if sc.Scan() {
		t.Fatal("Scan after error returned true")
	}
}

func TestScannerSkipsBlankLines(t *testing.T) {
	input := "\n" + sampleRecord().MarshalCSV() + "\n\n" + sampleRecord().MarshalCSV() + "\n"
	sc := NewScanner(strings.NewReader(input))
	n := 0
	for sc.Scan() {
		n++
	}
	if sc.Err() != nil || n != 2 {
		t.Fatalf("n = %d, err = %v", n, sc.Err())
	}
}

func TestWriteOpenFilePlain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	recs := streamRecords(50)
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	sc, closer, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	n := 0
	for sc.Scan() {
		n++
	}
	if sc.Err() != nil || n != 50 {
		t.Fatalf("n = %d, err = %v", n, sc.Err())
	}
}

func TestWriteOpenFileGzip(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "trace.csv")
	gz := filepath.Join(dir, "trace.csv.gz")
	recs := streamRecords(500)
	if err := WriteFile(plain, recs); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(gz, recs); err != nil {
		t.Fatal(err)
	}
	pi, _ := os.Stat(plain)
	gi, _ := os.Stat(gz)
	if gi.Size() >= pi.Size() {
		t.Fatalf("gzip (%d B) not smaller than plain (%d B)", gi.Size(), pi.Size())
	}
	sc, closer, err := OpenFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	n := 0
	for sc.Scan() {
		if sc.Record().DeviceID != int64(n) {
			t.Fatalf("record %d corrupted", n)
		}
		n++
	}
	if sc.Err() != nil || n != 500 {
		t.Fatalf("n = %d, err = %v", n, sc.Err())
	}
}

func TestGzipCloserSurfacesChecksumError(t *testing.T) {
	dir := t.TempDir()
	gz := filepath.Join(dir, "trace.csv.gz")
	if err := WriteFile(gz, streamRecords(200)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the CRC32 trailer (last 8 bytes are CRC + ISIZE): the
	// payload still inflates cleanly, so only checksum verification can
	// catch the damage.
	data, err := os.ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff
	if err := os.WriteFile(gz, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, closer, err := OpenFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
	}
	// Depending on read-ahead the checksum error surfaces through the
	// scanner or through Close; it must surface through at least one.
	cerr := closer.Close()
	if sc.Err() == nil && cerr == nil {
		t.Fatal("corrupted gzip trailer went unnoticed by both Err and Close")
	}
}

func TestGzipCloserCleanClose(t *testing.T) {
	dir := t.TempDir()
	gz := filepath.Join(dir, "trace.csv.gz")
	if err := WriteFile(gz, streamRecords(10)); err != nil {
		t.Fatal(err)
	}
	sc, closer, err := OpenFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for sc.Scan() {
		n++
	}
	if sc.Err() != nil || n != 10 {
		t.Fatalf("n = %d, err = %v", n, sc.Err())
	}
	if err := closer.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
}

func TestGzipCloserAbandonedEarly(t *testing.T) {
	// Closing without reading to EOF must not drain or error: abandoning
	// a 10 GB stream mid-file is a normal operation.
	dir := t.TempDir()
	gz := filepath.Join(dir, "trace.csv.gz")
	if err := WriteFile(gz, streamRecords(5000)); err != nil {
		t.Fatal(err)
	}
	sc, closer, err := OpenFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal("first record not scanned")
	}
	if err := closer.Close(); err != nil {
		t.Fatalf("early close: %v", err)
	}
}

func TestOpenFileErrors(t *testing.T) {
	if _, _, err := OpenFile("/does/not/exist.csv"); err == nil {
		t.Fatal("missing file opened")
	}
	// A .gz file with garbage content.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv.gz")
	if err := os.WriteFile(bad, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFile(bad); err == nil {
		t.Fatal("bad gzip opened")
	}
}
