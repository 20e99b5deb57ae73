package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"time"
)

// replayChunk is how much of the tape one replay write carries.
const replayChunk = 64 << 10

// schedule answers when line i of the tape was due on the wire, on the
// run clock. A paced feed is open-loop: line i is due at
// start + (T[i]-T[0])/compress whether or not the program keeps up. A
// replayed feed is closed by TCP backpressure, so a line was due when the
// write that carried its last byte began.
type schedule struct {
	tp       *tape
	start    int64   // clock ns of the first byte
	compress float64 // stream seconds per wall second; 0 for a replay
	chunkAt  []int64 // replay: clock ns each chunk's write began
}

func (s *schedule) due(i int) int64 {
	if s.compress > 0 {
		return s.start + int64((s.tp.T[i]-s.tp.T[0])/s.compress*float64(time.Second))
	}
	return s.chunkAt[(s.tp.Off[i+1]-1)/replayChunk]
}

// feedStats is what one pass of the writer leaves behind.
type feedStats struct {
	sched    schedule
	lastByte int64     // clock ns the last write returned
	lagMs    []float64 // paced: how late each line was handed to the socket
}

// replay writes the first limit lines down conn as fast as the program
// accepts them.
func replay(tp *tape, conn net.Conn, limit int) (feedStats, error) {
	f, err := os.Open(tp.Path)
	if err != nil {
		return feedStats{}, err
	}
	defer f.Close()
	end := tp.Off[limit]
	fs := feedStats{sched: schedule{tp: tp, start: nowNs()}}
	buf := make([]byte, replayChunk)
	for off := int64(0); off < end; {
		n := int64(len(buf))
		if end-off < n {
			n = end - off
		}
		if _, err := io.ReadFull(f, buf[:n]); err != nil {
			return fs, fmt.Errorf("replay: read tape: %w", err)
		}
		fs.sched.chunkAt = append(fs.sched.chunkAt, nowNs())
		if _, err := conn.Write(buf[:n]); err != nil {
			return fs, fmt.Errorf("replay: write feed: %w", err)
		}
		off += n
	}
	fs.lastByte = nowNs()
	return fs, nil
}

// paced writes the first limit lines on their schedule: whatever is due
// goes out in one write, then the writer sleeps until the next line is
// due. It never waits for the program, and records how late each line
// left so a slow generator cannot pass for a slow program.
func paced(tp *tape, conn net.Conn, limit int, compress float64) (feedStats, error) {
	f, err := os.Open(tp.Path)
	if err != nil {
		return feedStats{}, err
	}
	defer f.Close()
	fs := feedStats{
		sched: schedule{tp: tp, start: nowNs(), compress: compress},
		lagMs: make([]float64, 0, limit),
	}
	var buf []byte
	for lo := 0; lo < limit; {
		now := nowNs()
		hi := lo
		for hi < limit && fs.sched.due(hi) <= now {
			hi++
		}
		if hi == lo {
			time.Sleep(time.Duration(fs.sched.due(lo) - now))
			continue
		}
		n := int(tp.Off[hi] - tp.Off[lo])
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		if _, err := f.ReadAt(buf[:n], tp.Off[lo]); err != nil {
			return fs, fmt.Errorf("paced: read tape: %w", err)
		}
		for i := lo; i < hi; i++ {
			fs.lagMs = append(fs.lagMs, float64(now-fs.sched.due(i))/1e6)
		}
		if _, err := conn.Write(buf[:n]); err != nil {
			return fs, fmt.Errorf("paced: write feed: %w", err)
		}
		lo = hi
	}
	fs.lastByte = nowNs()
	return fs, nil
}
