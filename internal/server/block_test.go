package server

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"taxilight/internal/experiments"
	"taxilight/internal/trace"
)

// matchedLines renders the first n records of the world that the matcher
// accepts, one CSV line each.
func matchedLines(t *testing.T, w *experiments.World, n int) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range w.Records {
		if _, ok := w.Matcher.Match(r); ok {
			sb.WriteString(r.MarshalCSV() + "\n")
			if n--; n == 0 {
				return sb.String()
			}
		}
	}
	t.Fatalf("world has too few matched records, %d short", n)
	return ""
}

func bufferedRecords(s *Server) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.engine.Health().BufferedRecords
	}
	return n
}

// TestPartialBlockNotHeld checks the block hand-off rule from both ends.
// A block must never wait across a blocking read: three matched lines —
// and a malformed one behind them, which the scanner consumes while
// looking for a fourth record — written to a pipe that then stays open
// reach the engines within a few FlushEvery with no further input. And
// ending the feed must not lose what was already scanned, whether the
// end is ctx-cancel or a scanner error in the middle of a block.
func TestPartialBlockNotHeld(t *testing.T) {
	w := testWorld(t)
	newServer := func(lenient trace.LenientConfig) *Server {
		cfg := DefaultConfig()
		cfg.Shards = 2
		cfg.FlushEvery = 10 * time.Millisecond
		cfg.Lenient = lenient
		s, err := New(w.Matcher, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		return s
	}
	lines := matchedLines(t, w, 3)

	t.Run("OpenPipeThenCancel", func(t *testing.T) {
		s := newServer(trace.DefaultLenientConfig())
		pr, pw := io.Pipe()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- s.ingestReader(ctx, pr) }()
		if _, err := io.WriteString(pw, lines+"garbage\n"); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for bufferedRecords(s) < 3 {
			if time.Now().After(deadline) {
				t.Fatalf("%d of 3 records reached the engines: a partial block waited on the reader", bufferedRecords(s))
			}
			time.Sleep(2 * time.Millisecond)
		}
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("ingest returned %v, want context.Canceled", err)
		}
		pw.Close() // releases the scan goroutine from its read
		s.StopIngest()
		if got, m := s.met.ingestRecords.Load(), s.met.ingestMatched.Load(); got != 3 || m != 3 || bufferedRecords(s) != 3 {
			t.Fatalf("records %d matched %d buffered %d, want 3 each", got, m, bufferedRecords(s))
		}
		if got := s.met.scanLines.Load(); got != 4 {
			t.Fatalf("scan lines %d, want 4", got)
		}
	})

	t.Run("ScannerErrorMidBlock", func(t *testing.T) {
		// Three good lines then one bad: 1 of 4 blows a 20 % budget while
		// the block holds three records.
		s := newServer(trace.LenientConfig{MaxBadFraction: 0.2, MinLines: 4})
		err := s.ingestReader(context.Background(), strings.NewReader(lines+"garbage\n"+lines))
		if !errors.Is(err, trace.ErrBadLineBudget) {
			t.Fatalf("ingest returned %v, want ErrBadLineBudget", err)
		}
		s.StopIngest()
		if got, m := s.met.ingestRecords.Load(), s.met.ingestMatched.Load(); got != 3 || m != 3 || bufferedRecords(s) != 3 {
			t.Fatalf("records %d matched %d buffered %d, want 3 each", got, m, bufferedRecords(s))
		}
	})

	t.Run("ManyBlocks", func(t *testing.T) {
		// More than the free list holds, through full and partial blocks.
		n := 5*blockRecords + 7
		s := newServer(trace.DefaultLenientConfig())
		if err := s.ingestReader(context.Background(), strings.NewReader(matchedLines(t, w, n))); err != nil {
			t.Fatal(err)
		}
		s.StopIngest()
		if got, m := s.met.ingestRecords.Load(), s.met.ingestMatched.Load(); int(got) != n || int(m) != n {
			t.Fatalf("records %d matched %d, want %d each", got, m, n)
		}
	})
}
