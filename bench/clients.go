package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

// watcher is one /v1/watch subscriber on every approach. It stamps each
// SSE event on arrival and keeps only the round time the event carries;
// what that round was waiting for is worked out after the run.
type watcher struct {
	conn net.Conn
	done chan struct{}
	n    atomic.Int64 // events seen so far

	// Owned by the reading goroutine until done is closed.
	recvNs []int64
	roundT []float64
}

var (
	sseData  = []byte("data: ")
	sseField = []byte(`"t_s":`)
)

// parseEventTime extracts t_s from one line of an event stream. ok is
// false for every line that is not an event's data line.
func parseEventTime(line []byte) (float64, bool) {
	if !bytes.HasPrefix(line, sseData) {
		return 0, false
	}
	i := bytes.Index(line, sseField)
	if i < 0 {
		return 0, false
	}
	num := line[i+len(sseField):]
	j := bytes.IndexAny(num, ",}")
	if j < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(num[:j]), 64)
	return v, err == nil
}

// startWatcher subscribes to keys and returns once the server has
// answered 200, which it does only after the subscription is registered —
// no round that starts later can be missed.
func startWatcher(addr string, keys []mapmatch.Key) (*watcher, error) {
	var q strings.Builder
	for i, k := range keys {
		if i > 0 {
			q.WriteByte(',')
		}
		fmt.Fprintf(&q, "%d:%s", k.Light, k.Approach)
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	if _, err := fmt.Fprintf(conn, "GET /v1/watch?keys=%s HTTP/1.1\r\nHost: bench\r\nAccept: text/event-stream\r\n\r\n", q.String()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("watch: %w", err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		conn.Close()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	w := &watcher{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		body := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := body.ReadSlice('\n')
			if err != nil {
				return // closing conn is how the stream is ended
			}
			if t, ok := parseEventTime(line); ok {
				w.recvNs = append(w.recvNs, nowNs())
				w.roundT = append(w.roundT, t)
				w.n.Add(1)
			}
		}
	}()
	return w, nil
}

// waitFor blocks until n events have arrived or timeout passes.
func (w *watcher) waitFor(n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for w.n.Load() < n {
		select {
		case <-w.done:
			return w.n.Load() >= n
		default:
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// close ends the subscription and waits for the reading goroutine.
func (w *watcher) close() {
	w.conn.Close()
	<-w.done
}

// readPlan is a fixed amount of read traffic: Bursts bursts of PerBurst
// requests, burst b due at b*Every after the reader starts, the requests
// of a burst back to back on one keep-alive connection. One in ten is a
// route query. The count is fixed so that two runs attempt the same work;
// latency is send to body read, and how late a burst started is reported
// as generator lag, not as latency.
type readPlan struct {
	Bursts   int
	PerBurst int
	Every    time.Duration
	Seed     int64
}

// readStats is what the reader saw.
type readStats struct {
	StateUs, RouteUs []float64
	LagMs            []float64
	Attempted        int
	Failed           int
	FirstFailure     string
	Busy             time.Duration
}

// runReader issues plan against the served keys and, for routes, pairs of
// nodes. Every response must be a 200 whose body is a JSON document of
// the expected kind.
func runReader(addr string, plan readPlan, served []mapmatch.Key, nodes []roadnet.NodeID) (readStats, error) {
	var rs readStats
	if len(served) == 0 || len(nodes) == 0 {
		return rs, fmt.Errorf("reader: nothing to ask about (%d served approaches, %d nodes)", len(served), len(nodes))
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return rs, fmt.Errorf("reader: %w", err)
	}
	defer conn.Close()
	stateReq := make([][]byte, len(served))
	for i, k := range served {
		stateReq[i] = []byte(fmt.Sprintf("GET /v1/state/%d/%s HTTP/1.1\r\nHost: bench\r\n\r\n", k.Light, k.Approach))
	}
	rng := rand.New(rand.NewSource(plan.Seed))
	br := bufio.NewReaderSize(conn, 16<<10)
	var body bytes.Buffer
	var req, routeReq []byte
	total := plan.Bursts * plan.PerBurst
	rs.StateUs = make([]float64, 0, total)
	rs.RouteUs = make([]float64, 0, total/10+1)
	rs.LagMs = make([]float64, 0, plan.Bursts)
	fail := func(format string, args ...any) {
		rs.Failed++
		if rs.FirstFailure == "" {
			rs.FirstFailure = fmt.Sprintf(format, args...)
		}
	}
	start := time.Now()
	seq := 0
	for b := 0; b < plan.Bursts; b++ {
		due := start.Add(time.Duration(b) * plan.Every)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		burstStart := time.Now()
		rs.LagMs = append(rs.LagMs, float64(burstStart.Sub(due))/1e6)
		for i := 0; i < plan.PerBurst; i++ {
			route := seq%10 == 9
			seq++
			want := `"light":`
			if route {
				src := nodes[rng.Intn(len(nodes))]
				dst := nodes[rng.Intn(len(nodes))]
				for dst == src && len(nodes) > 1 {
					dst = nodes[rng.Intn(len(nodes))]
				}
				routeReq = append(routeReq[:0], "GET /v1/route?src="...)
				routeReq = strconv.AppendInt(routeReq, int64(src), 10)
				routeReq = append(routeReq, "&dst="...)
				routeReq = strconv.AppendInt(routeReq, int64(dst), 10)
				routeReq = append(routeReq, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
				req = routeReq
				want = `"duration_s":`
			} else {
				req = stateReq[rng.Intn(len(stateReq))]
			}
			rs.Attempted++
			t0 := time.Now()
			if _, err := conn.Write(req); err != nil {
				return rs, fmt.Errorf("reader: write: %w", err)
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				return rs, fmt.Errorf("reader: response to %q: %w", req, err)
			}
			body.Reset()
			_, err = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil {
				return rs, fmt.Errorf("reader: body: %w", err)
			}
			us := float64(time.Since(t0)) / 1e3
			if route {
				rs.RouteUs = append(rs.RouteUs, us)
			} else {
				rs.StateUs = append(rs.StateUs, us)
			}
			requestLine := req[:bytes.IndexByte(req, '\r')]
			switch {
			case resp.StatusCode != http.StatusOK:
				fail("%s: status %d", requestLine, resp.StatusCode)
			case !json.Valid(body.Bytes()) || !bytes.Contains(body.Bytes(), []byte(want)):
				fail("%s: body does not decode", requestLine)
			}
		}
		rs.Busy += time.Since(burstStart)
	}
	return rs, nil
}
