// Package ingest is the connection-resilience layer between flaky feed
// transports and the serving daemon's dispatch loop. Real FCD uplinks
// are intermittent — providers deliver probe data in bursts over
// connections that reset, stall and replay — so every feed runs as a
// named, supervised source with its own state machine
// (connecting → streaming → backoff → circuit-open → done):
//
//   - dial-out sources ("tcp+dial://addr") reconnect with exponential
//     backoff + jitter, and arm a last-seen-timestamp dedup gate on every
//     reconnect so an upstream that replays its buffer cannot
//     double-ingest a record;
//   - listen sources ("tcp://addr") retry transient Accept errors
//     (EMFILE and friends) with a short backoff instead of dying, and
//     re-listen when the budget is exhausted;
//   - a per-source circuit breaker opens after a budget of consecutive
//     unproductive attempts and holds the source in cooldown, so a dead
//     upstream costs a counter, not a hot reconnect loop.
//
// The package owns connection lifecycle only; what to do with a scanned
// record stays with the caller via the Consume callback and the
// per-source Admit gate.
package ingest

import (
	"fmt"
	"strings"
	"time"
)

// Config tunes every source's supervision: reconnect backoff, circuit
// breaker and accept-retry cadence.
type Config struct {
	// DialTimeout bounds one dial attempt of a tcp+dial source.
	DialTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential reconnect backoff of
	// dial sources (doubled per consecutive failure, reset by a
	// productive connection).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// BackoffJitter spreads each pause uniformly within ±jitter·pause so
	// a fleet of daemons does not reconnect in lockstep. Must be in
	// [0, 1).
	BackoffJitter float64
	// AcceptRetryMin/AcceptRetryMax bound the backoff a listen source
	// applies to transient Accept errors (EMFILE, aborted handshakes).
	AcceptRetryMin time.Duration
	AcceptRetryMax time.Duration
	// FailureBudget is the consecutive-unproductive-attempt budget
	// before the circuit breaker opens; 0 disables the breaker. A
	// connection is productive when the scanner received at least one
	// line — a fully deduplicated replay still counts as productive.
	FailureBudget int
	// CircuitCooldown is how long an open circuit rests before the
	// source is retried half-open: a single probe attempt. A productive
	// probe closes the circuit and restores the full budget; a failed
	// probe re-opens it immediately for another full cooldown.
	CircuitCooldown time.Duration
	// Seed feeds the per-source jitter RNG (combined with the source
	// name), keeping supervised schedules reproducible in tests.
	Seed int64
}

// DefaultConfig is the production posture: fast first retry, 30 s cap,
// breaker after 8 straight failures with a 30 s cooldown.
func DefaultConfig() Config {
	return Config{
		DialTimeout:     5 * time.Second,
		BackoffMin:      100 * time.Millisecond,
		BackoffMax:      30 * time.Second,
		BackoffJitter:   0.2,
		AcceptRetryMin:  5 * time.Millisecond,
		AcceptRetryMax:  time.Second,
		FailureBudget:   8,
		CircuitCooldown: 30 * time.Second,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.DialTimeout <= 0:
		return fmt.Errorf("ingest: non-positive dial timeout %v", c.DialTimeout)
	case c.BackoffMin <= 0 || c.BackoffMax < c.BackoffMin:
		return fmt.Errorf("ingest: bad backoff range [%v, %v]", c.BackoffMin, c.BackoffMax)
	case c.BackoffJitter < 0 || c.BackoffJitter >= 1:
		return fmt.Errorf("ingest: backoff jitter %g outside [0, 1)", c.BackoffJitter)
	case c.AcceptRetryMin <= 0 || c.AcceptRetryMax < c.AcceptRetryMin:
		return fmt.Errorf("ingest: bad accept-retry range [%v, %v]", c.AcceptRetryMin, c.AcceptRetryMax)
	case c.FailureBudget < 0:
		return fmt.Errorf("ingest: negative failure budget %d", c.FailureBudget)
	case c.FailureBudget > 0 && c.CircuitCooldown <= 0:
		return fmt.Errorf("ingest: failure budget %d needs a positive circuit cooldown, got %v",
			c.FailureBudget, c.CircuitCooldown)
	}
	return nil
}

// Kind classifies how a source obtains its byte stream.
type Kind int

// Source kinds, in Spec order of detection.
const (
	KindStdin Kind = iota
	KindFile
	KindListen
	KindDial
)

// String returns the stable kind label used in metrics and health.
func (k Kind) String() string {
	switch k {
	case KindStdin:
		return "stdin"
	case KindFile:
		return "file"
	case KindListen:
		return "tcp-listen"
	case KindDial:
		return "tcp-dial"
	}
	return "unknown"
}

// Spec describes one named source parsed from a -in entry.
type Spec struct {
	// Name labels the source in /healthz and /metrics. Defaults to the
	// spec string itself when no "name=" prefix is given.
	Name string
	// Kind selects the transport.
	Kind Kind
	// Addr is the dial/listen address or file path ("-" for stdin).
	Addr string
}

// ParseSpecs parses a comma-separated -in value into named sources:
//
//	"-"               stdin
//	tcp://addr        listen for push feeds on addr
//	tcp+dial://addr   dial addr and reconnect on failure
//	anything else     a file path (".gz"-aware)
//
// Each entry may carry a "name=" prefix (e.g. "airport=tcp+dial://h:7001")
// naming the source in health and metrics; the name must not repeat.
func ParseSpecs(s string) ([]Spec, error) {
	parts := strings.Split(s, ",")
	specs := make([]Spec, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("ingest: empty source in %q", s)
		}
		name := ""
		// A "name=" prefix is only a name when it precedes the scheme or
		// path — never split inside an address or a path containing "=".
		if eq := strings.Index(part, "="); eq > 0 &&
			!strings.ContainsAny(part[:eq], ":/") {
			name, part = part[:eq], part[eq+1:]
			if part == "" {
				return nil, fmt.Errorf("ingest: source %q has a name but no address", name)
			}
		}
		sp := Spec{Name: name}
		switch {
		case part == "-":
			sp.Kind, sp.Addr = KindStdin, "-"
		case strings.HasPrefix(part, "tcp+dial://"):
			sp.Kind, sp.Addr = KindDial, strings.TrimPrefix(part, "tcp+dial://")
		case strings.HasPrefix(part, "tcp://"):
			sp.Kind, sp.Addr = KindListen, strings.TrimPrefix(part, "tcp://")
		default:
			sp.Kind, sp.Addr = KindFile, part
		}
		if sp.Addr == "" {
			return nil, fmt.Errorf("ingest: source %q has an empty address", part)
		}
		if sp.Name == "" {
			sp.Name = part
		}
		if seen[sp.Name] {
			return nil, fmt.Errorf("ingest: duplicate source name %q", sp.Name)
		}
		seen[sp.Name] = true
		specs = append(specs, sp)
	}
	return specs, nil
}
