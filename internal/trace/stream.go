package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// LenientConfig tunes the scanner's tolerant mode: malformed lines are
// skipped and counted per error class instead of aborting the stream,
// which is how a production ingester must treat a crowdsourced feed —
// field probe data is dominated by malformed and duplicated records, and
// one bad byte must not take down the pipeline. The budget still bounds
// the damage: a feed that is mostly garbage is a systemic failure
// (wrong file, wrong format, upstream outage) that must surface as an
// error, not be silently eaten.
type LenientConfig struct {
	// MaxBadFraction is the malformed-line budget: scanning fails with
	// ErrBadLineBudget once skipped/total exceeds it. 0.05 tolerates a
	// dirty feed while still catching format mismatches.
	MaxBadFraction float64
	// MinLines delays budget enforcement until this many non-blank lines
	// have been seen, so one bad line at the top of a file cannot trip a
	// fractional budget.
	MinLines int
	// Validate additionally drops lines that parse but fail
	// Record.Validate (class "invalid") — e.g. a digit flip that moved a
	// coordinate out of range.
	Validate bool
}

// DefaultLenientConfig is the production ingestion posture: skip and
// count, fail beyond 5 % malformed after the first 100 lines.
func DefaultLenientConfig() LenientConfig {
	return LenientConfig{MaxBadFraction: 0.05, MinLines: 100, Validate: true}
}

// ErrBadLineBudget reports that the malformed-line fraction exceeded the
// lenient budget.
var ErrBadLineBudget = errors.New("trace: malformed-line budget exceeded")

// SkipStats accounts for every line a lenient scanner consumed.
type SkipStats struct {
	// Lines counts non-blank input lines, good and bad.
	Lines int
	// Skipped counts malformed lines dropped; ByClass breaks them down
	// by parse-error class (ClassFields, ClassTime, ...). Lines-Skipped
	// is exactly the number of records delivered.
	Skipped int
	ByClass map[string]int
}

// Scanner streams Table-I records from a reader one at a time without
// loading the whole trace into memory — a day of the real feed is ~10 GB,
// so batch ReadCSV does not scale to production traces.
//
//	sc := trace.NewScanner(r)
//	for sc.Scan() {
//	    rec := sc.Record()
//	    ...
//	}
//	if err := sc.Err(); err != nil { ... }
//
// The scanner owns its line buffer and parses each line in place, so a
// steady feed costs no allocation per record: the only strings a record
// holds (plate, SIM, colour) come from a bounded intern table, each
// carved from a slab the first time it is seen.
type Scanner struct {
	r io.Reader
	// buf[start:end] is input not yet consumed; buf[start:searched] is
	// known to hold no newline. readErr is the reader's first error,
	// io.EOF included, after which it is not read again.
	buf                  []byte
	start, searched, end int
	readErr              error

	rec    Record
	err    error
	lineNo int
	intern internTable
	slab   strings.Builder // the intern table's current slab

	lenient bool
	lcfg    LenientConfig
	// Stats may be polled from a metrics endpoint while the ingest
	// goroutine is mid-Scan: lines is atomic so a good line takes no
	// lock, statsMu guards the skip accounting. A line is counted before
	// its skip, so a poll never sees more skips than lines.
	lines   atomic.Int64
	statsMu sync.Mutex
	skipped int
	byClass map[string]int
}

// Line buffer bounds: a line, terminator included, must fit in
// maxLineBytes or the scan fails with bufio.ErrTooLong.
const (
	startLineBytes = 64 * 1024
	maxLineBytes   = 4 * 1024 * 1024
	maxEmptyReads  = 100
)

// NewScanner returns a strict streaming reader over r: the first
// malformed line stops the scan with an error.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: r, buf: make([]byte, startLineBytes), intern: internTable{}}
}

// NewLenientScanner returns a corruption-tolerant streaming reader: see
// LenientConfig.
func NewLenientScanner(r io.Reader, cfg LenientConfig) *Scanner {
	s := NewScanner(r)
	s.SetLenient(cfg)
	return s
}

// SetLenient switches an existing scanner (e.g. one from OpenFile) into
// lenient mode. It must be called before the first Scan.
func (s *Scanner) SetLenient(cfg LenientConfig) {
	s.lenient = true
	s.lcfg = cfg
	if s.byClass == nil {
		s.byClass = map[string]int{}
	}
}

// Stats returns the line accounting so far. The ByClass map is a copy.
// Stats is safe to call concurrently with Scan — the stable accessor a
// serving daemon's metrics endpoint polls against a live feed.
func (s *Scanner) Stats() SkipStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	out := SkipStats{
		Lines:   int(s.lines.Load()),
		Skipped: s.skipped,
		ByClass: make(map[string]int, len(s.byClass)),
	}
	for k, v := range s.byClass {
		out.ByClass[k] = v
	}
	return out
}

// Scan advances to the next record. It returns false at EOF or on a
// fatal error; Err distinguishes the two. In strict mode the first
// malformed line is fatal; in lenient mode malformed lines are skipped
// and counted, and only blowing the malformed-fraction budget is fatal.
func (s *Scanner) Scan() bool { return s.scan(true) }

// ScanBuffered is Scan restricted to input the scanner already holds: it
// never reads, so it never blocks. False means the stream ended, failed
// (Err is set), or the next record needs a read — Scan tells which. A
// consumer that batches records uses it to hand a partial batch on
// before a read that may wait.
func (s *Scanner) ScanBuffered() bool { return s.scan(false) }

// text interns one text field of the line being parsed.
func (s *Scanner) text(b []byte) string { return s.intern.get(&s.slab, b) }

func (s *Scanner) scan(mayRead bool) bool {
	for s.err == nil {
		line, ok := s.nextLine(mayRead)
		if !ok {
			break
		}
		s.lineNo++
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		lines := s.lines.Add(1)
		err := parseRecord(&s.rec, line, s.text)
		if err == nil && s.lenient && s.lcfg.Validate {
			if verr := s.rec.Validate(); verr != nil {
				err = &ParseError{Class: ClassInvalid, Err: verr}
			}
		}
		if err == nil {
			return true
		}
		if !s.lenient {
			s.err = fmt.Errorf("line %d: %w", s.lineNo, err)
			break
		}
		s.statsMu.Lock()
		s.skipped++
		s.byClass[ClassOf(err)]++
		skipped := s.skipped
		s.statsMu.Unlock()
		if int(lines) >= s.lcfg.MinLines && float64(skipped) > s.lcfg.MaxBadFraction*float64(lines) {
			s.err = fmt.Errorf("%w: %d of %d lines malformed (budget %.1f%%), last at line %d: %v",
				ErrBadLineBudget, skipped, lines,
				100*s.lcfg.MaxBadFraction, s.lineNo, err)
		}
	}
	return false
}

// nextLine returns the next line of input without its terminator. Once
// the reader has failed or ended, what is left unterminated is the last
// line. ok is false when there is none: the input is used up, the line
// is over-long (s.err is set), or a read is needed and mayRead forbids it.
func (s *Scanner) nextLine(mayRead bool) (line []byte, ok bool) {
	for s.err == nil {
		if i := bytes.IndexByte(s.buf[s.searched:s.end], '\n'); i >= 0 {
			line = s.buf[s.start : s.searched+i]
			s.start = s.searched + i + 1
			s.searched = s.start
			return line, true
		}
		s.searched = s.end
		if s.readErr != nil {
			if s.start == s.end {
				if s.readErr != io.EOF {
					s.err = s.readErr
				}
				return nil, false
			}
			line = s.buf[s.start:s.end]
			s.start = s.end
			return line, true
		}
		if !mayRead {
			break
		}
		s.fill()
	}
	return nil, false
}

// fill reads more input behind the partial line the buffer holds, moving
// that line to the front and doubling the buffer up to maxLineBytes when
// it is full. It sets readErr when the reader is done and err when the
// line cannot fit.
func (s *Scanner) fill() {
	if s.start > 0 {
		copy(s.buf, s.buf[s.start:s.end])
		s.end -= s.start
		s.searched -= s.start
		s.start = 0
	}
	if s.end == len(s.buf) {
		if len(s.buf) >= maxLineBytes {
			s.err = bufio.ErrTooLong
			return
		}
		grown := make([]byte, min(2*len(s.buf), maxLineBytes))
		copy(grown, s.buf[:s.end])
		s.buf = grown
	}
	for empty := 0; ; empty++ {
		n, err := s.r.Read(s.buf[s.end:])
		if n < 0 || n > len(s.buf)-s.end {
			s.readErr = bufio.ErrBadReadCount
			return
		}
		s.end += n
		if err != nil {
			s.readErr = err
			return
		}
		if n > 0 {
			return
		}
		if empty >= maxEmptyReads {
			s.readErr = io.ErrNoProgress
			return
		}
	}
}

// Record returns the record parsed by the last successful Scan. The
// scanner overwrites its copy on the next Scan, but the returned value
// is the caller's own: it holds no reference to the scanner's buffer and
// stays valid for as long as it is kept.
func (s *Scanner) Record() Record { return s.rec }

// Err returns the first error encountered, or nil at clean EOF.
func (s *Scanner) Err() error { return s.err }

// OpenFile opens a trace file for streaming, transparently decompressing
// ".gz" files. The returned closer must be closed by the caller; for
// ".gz" files it closes both the gzip layer and the underlying file, and
// surfaces the stream's checksum verification error when the compressed
// data was fully consumed.
func OpenFile(path string) (*Scanner, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return NewScanner(f), f, nil
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("trace: gzip: %w", err)
	}
	return NewScanner(zr), &gzipCloser{zr: zr, f: f}, nil
}

// gzipCloser closes the gzip layer and then the underlying file,
// returning the first error. gzip only verifies its CRC/length trailer on
// the read that reaches EOF, so a caller that stopped exactly at the last
// record could otherwise drop a truncation or corruption silently; Close
// probes one byte to force that verification when the stream was fully
// consumed, without draining a stream that was abandoned mid-file.
type gzipCloser struct {
	zr *gzip.Reader
	f  *os.File
}

// Close implements io.Closer.
func (g *gzipCloser) Close() error {
	var first error
	var b [1]byte
	if n, err := g.zr.Read(b[:]); n == 0 && err != nil && err != io.EOF {
		first = fmt.Errorf("trace: gzip: %w", err)
	}
	if err := g.zr.Close(); err != nil && first == nil {
		first = fmt.Errorf("trace: gzip: %w", err)
	}
	if err := g.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// WriteFile writes records to path, gzip-compressing when the path ends
// in ".gz".
func WriteFile(path string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var zw *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		zw = gzip.NewWriter(f)
		w = zw
	}
	if err := WriteCSV(w, recs); err != nil {
		f.Close()
		return err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
