package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"taxilight/internal/mapmatch"
)

// The load generator — the feed writer and the watcher — runs in a
// process of its own: this same binary, started with clientEnv set. Inside
// the server's process a generator goroutine queues behind the round
// workers in Go's scheduler (paced lines were seen leaving 60 to 240 ms
// late), and its CPU time and allocations would be counted as the
// server's. In its own process it is scheduled by the kernel like any
// client, and the server's process accounts for the server alone. The
// reader stays in the server's process: a closed loop across two processes
// measures how long this host takes to wake an idle vCPU (58 to 124 us at
// rest from one run to the next), not the read path.
//
// The two talk over the child's stdin and stdout in gob: the parent sends
// a genSpec; the child subscribes, connects, answers startReport and
// feeds, then answers fedReport; the parent stops ingest and sends a
// drainOrder with the number of events the hub enqueued; the child waits
// for them and answers doneReport.

const clientEnv = "LIGHTBENCH_LOADGEN"

// genSpec is one lap's work for the generator.
type genSpec struct {
	Tape, Index        string
	FeedAddr, HTTPAddr string
	Limit              int     // lines to feed
	Compress           float64 // stream seconds per wall second; 0 replays
	Keys               []mapmatch.Key
}

// startReport is sent when the watcher is subscribed and the feed
// connected, right before the first byte.
type startReport struct{ ReadyNs int64 }

// fedReport is sent when the last byte of the feed has been written.
type fedReport struct {
	StartNs    int64 // first byte
	LastByteNs int64
	ChunkAt    []int64
	LagMs      []float64
}

type drainOrder struct{ Events int64 }

// doneReport is the generator's last word: every event the watcher saw.
type doneReport struct {
	RecvNs []int64
	RoundT []float64
}

// writeIndex stores where each line of the tape starts and when it
// happened, for the generator to pace by.
func (tp *tape) writeIndex(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path checks Close below
	w := bufio.NewWriterSize(f, 1<<20)
	for _, v := range []any{int64(tp.records()), tp.Off, tp.T} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// readIndex is writeIndex's inverse: a tape with only what pacing needs.
func readIndex(tapePath, indexPath string) (*tape, error) {
	f, err := os.Open(indexPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("tape index: %w", err)
	}
	if n < 0 || n > 1<<28 {
		return nil, fmt.Errorf("tape index: %d lines", n)
	}
	tp := &tape{Path: tapePath, Off: make([]int64, n+1), T: make([]float64, n)}
	if err := binary.Read(r, binary.LittleEndian, tp.Off); err != nil {
		return nil, fmt.Errorf("tape index: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, tp.T); err != nil {
		return nil, fmt.Errorf("tape index: %w", err)
	}
	return tp, nil
}

// loadgenMain is the child's main.
func loadgenMain(stdin io.Reader, stdout, stderr io.Writer) int {
	if err := runLoadgen(gob.NewDecoder(stdin), gob.NewEncoder(stdout)); err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	}
	return 0
}

func runLoadgen(dec *gob.Decoder, enc *gob.Encoder) error {
	var spec genSpec
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	tp, err := readIndex(spec.Tape, spec.Index)
	if err != nil {
		return err
	}
	if spec.Limit > tp.records() {
		return fmt.Errorf("asked to feed %d lines of a %d-line tape", spec.Limit, tp.records())
	}
	wt, err := startWatcher(spec.HTTPAddr, spec.Keys)
	if err != nil {
		return err
	}
	defer wt.close()
	// The feed connection is opened last, right before the first byte: the
	// dispatcher's FlushEvery ticker starts when the source accepts, and
	// where its ticks cut the first batches decides when each shard's
	// rounds fall. Pinning that phase is what lets two laps be compared.
	conn, err := dialRetry(spec.FeedAddr, nil)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := enc.Encode(startReport{ReadyNs: nowNs()}); err != nil {
		return err
	}
	var fs feedStats
	switch {
	case spec.Limit == 0:
		fs.sched.start, fs.lastByte = nowNs(), nowNs()
	case spec.Compress > 0:
		fs, err = paced(tp, conn, spec.Limit, spec.Compress)
	default:
		fs, err = replay(tp, conn, spec.Limit)
	}
	if err == nil {
		err = conn.Close()
	}
	if err != nil {
		return err
	}
	fed := fedReport{StartNs: fs.sched.start, LastByteNs: fs.lastByte, ChunkAt: fs.sched.chunkAt, LagMs: fs.lagMs}
	if err := enc.Encode(fed); err != nil {
		return err
	}
	var order drainOrder
	if err := dec.Decode(&order); err != nil {
		return fmt.Errorf("drain order: %w", err)
	}
	wt.waitFor(order.Events, 5*time.Second)
	wt.close()
	return enc.Encode(doneReport{RecvNs: wt.recvNs, RoundT: wt.roundT})
}

// loadgen is the parent's handle on a running generator.
type loadgen struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	enc    *gob.Encoder
	dec    *gob.Decoder
	stderr bytes.Buffer
	waited bool
}

// startLoadgen starts the generator on spec.
func startLoadgen(spec genSpec) (*loadgen, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	g := &loadgen{cmd: exec.Command(self)}
	g.cmd.Env = append(os.Environ(), clientEnv+"=1")
	g.cmd.Stderr = &g.stderr
	if g.stdin, err = g.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := g.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := g.cmd.Start(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	g.enc, g.dec = gob.NewEncoder(g.stdin), gob.NewDecoder(out)
	if err := g.enc.Encode(spec); err != nil {
		g.stop()
		return nil, g.failure("send spec", err)
	}
	return g, nil
}

// failure wraps err with what the child said before it gave up.
func (g *loadgen) failure(doing string, err error) error {
	if msg := bytes.TrimSpace(g.stderr.Bytes()); len(msg) > 0 {
		return fmt.Errorf("load generator: %s: %v: %s", doing, err, msg)
	}
	return fmt.Errorf("load generator: %s: %w", doing, err)
}

// started blocks until the generator is about to write the first byte.
func (g *loadgen) started() (startReport, error) {
	var r startReport
	if err := g.dec.Decode(&r); err != nil {
		g.stop()
		return r, g.failure("start", err)
	}
	return r, nil
}

// fed blocks until the generator has written the feed.
func (g *loadgen) fed() (fedReport, error) {
	var r fedReport
	if err := g.dec.Decode(&r); err != nil {
		g.stop()
		return r, g.failure("feed", err)
	}
	return r, nil
}

// drain tells the generator how many events to wait for and collects its
// final report; the child has exited when it returns.
func (g *loadgen) drain(events int64) (doneReport, error) {
	var r doneReport
	if err := g.enc.Encode(drainOrder{Events: events}); err != nil {
		g.stop()
		return r, g.failure("drain order", err)
	}
	if err := g.dec.Decode(&r); err != nil {
		g.stop()
		return r, g.failure("final report", err)
	}
	g.stdin.Close()
	g.waited = true
	if err := g.cmd.Wait(); err != nil {
		return r, g.failure("exit", err)
	}
	return r, nil
}

// stop ends a generator that is still running and waits for it. It is
// safe to call after drain.
func (g *loadgen) stop() {
	if g.waited {
		return
	}
	g.waited = true
	g.stdin.Close()
	_ = g.cmd.Process.Kill() // it may have exited already
	_ = g.cmd.Wait()         // the kill is the expected cause of its error
}
