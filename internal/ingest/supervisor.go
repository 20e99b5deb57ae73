package ingest

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"taxilight/internal/trace"
)

// Consume is the caller's record sink: it drains one connection's
// scanner, consulting src.Admit before dispatching each record, and
// returns the scan error (nil at clean EOF). The supervisor owns the
// connection around the call — Consume must simply return when the
// scanner ends, whatever the cause.
type Consume func(ctx context.Context, sc *trace.Scanner, src *Source) error

// Supervisor runs every parsed source in its own supervised goroutine.
type Supervisor struct {
	cfg     Config
	lenient trace.LenientConfig
	sources []*Source
	consume Consume
	connWG  sync.WaitGroup
}

// NewSupervisor builds a supervisor over the given sources. Every
// scanner it builds gets lenient as its malformed-line budget (per
// connection, so a reconnect gets a fresh budget). consume is called
// once per established connection (or opened file).
func NewSupervisor(specs []Spec, cfg Config, lenient trace.LenientConfig, consume Consume) (*Supervisor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, errors.New("ingest: no sources")
	}
	if consume == nil {
		return nil, errors.New("ingest: nil consume callback")
	}
	sup := &Supervisor{cfg: cfg, lenient: lenient, consume: consume}
	for _, sp := range specs {
		sup.sources = append(sup.sources, newSource(sp))
	}
	return sup, nil
}

// Sources exposes the supervised sources in spec order. The slice is
// owned by the supervisor; do not mutate it.
func (sup *Supervisor) Sources() []*Source { return sup.sources }

// Snapshot copies every source's status in spec order.
func (sup *Supervisor) Snapshot() []SourceStatus {
	out := make([]SourceStatus, len(sup.sources))
	for i, src := range sup.sources {
		out[i] = src.Status()
	}
	return out
}

// Run supervises every source until ctx is cancelled and all finite
// sources (file, stdin) have drained. Network sources never end on
// their own — a dial source reconnects forever, a listen source accepts
// forever — so with any network source Run returns only on cancel. The
// returned error joins the terminal failures of finite sources;
// cancellation itself is not an error.
func (sup *Supervisor) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, len(sup.sources))
	for i, src := range sup.sources {
		wg.Add(1)
		go func(i int, src *Source) {
			defer wg.Done()
			switch src.spec.Kind {
			case KindDial:
				sup.runDial(ctx, src)
			case KindListen:
				sup.runListen(ctx, src)
			default:
				errs[i] = sup.runFinite(ctx, src)
			}
		}(i, src)
	}
	wg.Wait()
	sup.connWG.Wait()
	return errors.Join(errs...)
}

// jitterRNG seeds the per-source pause RNG from the config seed and the
// source name, so supervised schedules are reproducible yet distinct
// across sources.
func (sup *Supervisor) jitterRNG(src *Source) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(src.spec.Name))
	return rand.New(rand.NewSource(sup.cfg.Seed ^ int64(h.Sum64())))
}

// jitter spreads d uniformly within ±frac·d.
func jitter(d time.Duration, frac float64, rng *rand.Rand) time.Duration {
	if frac <= 0 || d <= 0 {
		return d
	}
	spread := 1 + frac*(2*rng.Float64()-1)
	return time.Duration(float64(d) * spread)
}

// sleepCtx pauses for d, returning false when ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// pause applies the supervised wait after a failed or closed
// connection: the exponential backoff normally, or the circuit cooldown
// when the failure streak exhausted the budget — or when the single
// half-open probe after a cooldown failed, which re-opens the circuit
// with the full cooldown instead of granting a fresh budget. It returns
// false when ctx ended.
func (sup *Supervisor) pause(ctx context.Context, src *Source, backoff *time.Duration, rng *rand.Rand) bool {
	var d time.Duration
	if b := sup.cfg.FailureBudget; b > 0 && (src.failureStreak() >= int64(b) || src.probeFailed()) {
		src.openCircuit()
		d = sup.cfg.CircuitCooldown
		*backoff = sup.cfg.BackoffMin
	} else {
		src.setState(StateBackoff)
		d = jitter(*backoff, sup.cfg.BackoffJitter, rng)
		*backoff *= 2
		if *backoff > sup.cfg.BackoffMax {
			*backoff = sup.cfg.BackoffMax
		}
	}
	src.backoff.Observe(d.Seconds())
	return sleepCtx(ctx, d)
}

// runDial supervises one dial-out source: connect, stream, and on any
// end — dial failure, reset, clean EOF — back off and reconnect. Every
// reconnect arms the resume-dedup gate, so the replay an upstream sends
// after a reconnect is admitted at most once.
func (sup *Supervisor) runDial(ctx context.Context, src *Source) {
	rng := sup.jitterRNG(src)
	dialer := &net.Dialer{Timeout: sup.cfg.DialTimeout}
	backoff := sup.cfg.BackoffMin
	connected := false
	for ctx.Err() == nil {
		src.setState(StateConnecting)
		conn, err := dialer.DialContext(ctx, "tcp", src.spec.Addr)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			src.connFailed(err)
			if !sup.pause(ctx, src, &backoff, rng) {
				break
			}
			continue
		}
		if connected {
			src.armResume()
		}
		src.connOpened(connected)
		connected = true
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		sc := trace.NewLenientScanner(conn, sup.lenient)
		cerr := sup.consume(ctx, sc, src)
		stop()
		conn.Close()
		src.connClosed(connLoopErr(ctx, cerr))
		if ctx.Err() != nil {
			break
		}
		// Productivity is lines received, not records admitted: a fully
		// deduplicated replay proves the upstream alive and must not
		// trip the breaker.
		if sc.Stats().Lines > 0 {
			src.clearStreak()
			backoff = sup.cfg.BackoffMin
		} else {
			src.noteFailure(cerr)
		}
		if !sup.pause(ctx, src, &backoff, rng) {
			break
		}
	}
	src.setState(StateDone)
}

// runListen supervises one listen source: transient Accept errors are
// retried with a short backoff, and only an exhausted failure budget
// escalates to closing and re-opening the listener behind the circuit
// breaker — the source itself never dies while ctx lives.
func (sup *Supervisor) runListen(ctx context.Context, src *Source) {
	rng := sup.jitterRNG(src)
	backoff := sup.cfg.BackoffMin
	for ctx.Err() == nil {
		src.setState(StateConnecting)
		ln, err := net.Listen("tcp", src.spec.Addr)
		if err != nil {
			src.noteFailure(err)
			if !sup.pause(ctx, src, &backoff, rng) {
				break
			}
			continue
		}
		src.clearStreak()
		backoff = sup.cfg.BackoffMin
		err = sup.acceptLoop(ctx, src, ln)
		ln.Close()
		if ctx.Err() != nil {
			break
		}
		src.noteFailure(err)
		if !sup.pause(ctx, src, &backoff, rng) {
			break
		}
	}
	src.setState(StateDone)
}

// acceptLoop accepts push connections on ln until ctx ends or accept
// errors exhaust the failure budget (the error is returned so the
// caller can re-listen). Each accepted connection is consumed in its
// own goroutine: one client blowing its malformed budget does not end
// the others.
func (sup *Supervisor) acceptLoop(ctx context.Context, src *Source, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	retry := sup.cfg.AcceptRetryMin
	fails := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return err
			}
			fails++
			src.acceptRetried(err)
			if b := sup.cfg.FailureBudget; b > 0 && fails >= b {
				return fmt.Errorf("ingest: %d consecutive accept errors, last: %w", fails, err)
			}
			src.backoff.Observe(retry.Seconds())
			if !sleepCtx(ctx, retry) {
				return err
			}
			retry *= 2
			if retry > sup.cfg.AcceptRetryMax {
				retry = sup.cfg.AcceptRetryMax
			}
			continue
		}
		fails = 0
		retry = sup.cfg.AcceptRetryMin
		src.connOpened(false)
		sup.connWG.Add(1)
		go func(c net.Conn) {
			defer sup.connWG.Done()
			defer c.Close()
			unhook := context.AfterFunc(ctx, func() { c.Close() })
			defer unhook()
			sc := trace.NewLenientScanner(c, sup.lenient)
			cerr := sup.consume(ctx, sc, src)
			src.connClosed(connLoopErr(ctx, cerr))
		}(conn)
	}
}

// runFinite supervises a file or stdin source: one pass, then done. A
// clean EOF leaves the daemon serving its last estimates; a terminal
// error (unreadable file, blown budget) is returned to the caller.
func (sup *Supervisor) runFinite(ctx context.Context, src *Source) error {
	src.setState(StateConnecting)
	var (
		sc     *trace.Scanner
		closer func() error
	)
	if src.spec.Kind == KindStdin {
		sc = trace.NewLenientScanner(os.Stdin, sup.lenient)
		closer = func() error { return nil }
	} else {
		fsc, c, err := trace.OpenFile(src.spec.Addr)
		if err != nil {
			src.connFailed(err)
			src.setState(StateDone)
			return fmt.Errorf("source %s: %w", src.spec.Name, err)
		}
		fsc.SetLenient(sup.lenient)
		sc, closer = fsc, c.Close
	}
	src.connOpened(false)
	cerr := sup.consume(ctx, sc, src)
	if err := closer(); cerr == nil {
		cerr = err
	}
	src.connClosed(cerr)
	src.setState(StateDone)
	if cerr != nil && ctx.Err() == nil {
		return fmt.Errorf("source %s: %w", src.spec.Name, cerr)
	}
	return nil
}

// connLoopErr filters the error a closed connection reports: the "use
// of closed network connection" a cancel induces is shutdown noise, not
// a source failure worth surfacing in /healthz.
func connLoopErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return nil
	}
	return err
}
