package ingest

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"taxilight/internal/trace"
)

// TestHalfOpenSingleProbe drives a dial source against an upstream that
// accepts and closes every connection without ever sending a line —
// each attempt is unproductive — while concurrent readers hammer the
// source's status under -race. It pins the half-open contract: after a
// cooldown exactly one probe dial is in flight at a time, and a failed
// probe re-opens the circuit with the full cooldown rather than a fresh
// failure budget.
func TestHalfOpenSingleProbe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var cur, max atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				n := cur.Add(1)
				for {
					m := max.Load()
					if n <= m || max.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond) // hold the conn so overlap would show
				c.Close()
				cur.Add(-1)
			}(conn)
		}
	}()

	const cooldown = 40 * time.Millisecond
	cfg := fastConfig()
	cfg.FailureBudget = 2
	cfg.CircuitCooldown = cooldown
	specs, _ := ParseSpecs("mute=tcp+dial://" + ln.Addr().String())
	col := &collector{}
	sup, err := NewSupervisor(specs, cfg, trace.DefaultLenientConfig(), col.consume)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()

	// Concurrent reconnect racing the probe: status readers and the
	// supervision loop share every Source field the breaker touches.
	readers := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for {
				select {
				case <-readers:
					return
				default:
					sup.Snapshot()
					sup.Sources()[0].State()
				}
			}
		}()
	}

	waitFor(t, "three circuit opens", func() bool {
		return sup.Snapshot()[0].CircuitOpens >= 3
	})
	cancel()
	close(readers)
	<-done

	st := sup.Snapshot()[0]
	if got := max.Load(); got != 1 {
		t.Fatalf("max concurrent upstream connections = %d, want 1 (a single probe in flight)", got)
	}
	// Every re-open after the first must cost exactly one probe
	// connection, not a fresh budget of 2.
	if st.ConnsTotal > int64(cfg.FailureBudget)+st.CircuitOpens {
		t.Fatalf("ConnsTotal = %d with %d opens: a failed probe did not re-open immediately", st.ConnsTotal, st.CircuitOpens)
	}
	// A failed probe must rest for the full cooldown: every open shows
	// up as one cooldown-sized pause in the backoff histogram, an order
	// of magnitude above the exponential backoff this config allows.
	long := int64(0)
	for i, bound := range st.Backoff.Bounds {
		if bound >= cooldown.Seconds() {
			long += st.Backoff.Counts[i]
		}
	}
	long += st.Backoff.Inf
	if long < st.CircuitOpens {
		t.Fatalf("only %d cooldown-length pauses for %d circuit opens: a probe re-opened without the full cooldown", long, st.CircuitOpens)
	}
	if st.Records != 0 {
		t.Fatalf("Records = %d, want 0", st.Records)
	}
}
