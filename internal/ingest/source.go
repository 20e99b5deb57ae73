package ingest

import (
	"sync"
	"time"

	"taxilight/internal/metrics"
	"taxilight/internal/trace"
)

// State is one step of a source's supervision state machine.
type State int

// Source states. A dial source cycles connecting → streaming → backoff
// (→ circuit-open) until its context ends; file and stdin sources end in
// done.
const (
	StateConnecting State = iota
	StateStreaming
	StateBackoff
	StateCircuitOpen
	StateDone
)

// String returns the stable state label used in metrics and health.
func (st State) String() string {
	switch st {
	case StateConnecting:
		return "connecting"
	case StateStreaming:
		return "streaming"
	case StateBackoff:
		return "backoff"
	case StateCircuitOpen:
		return "circuit-open"
	case StateDone:
		return "done"
	}
	return "unknown"
}

// StateNames lists every state label in stable order, so metric
// exporters can pre-render the full state gauge matrix.
func StateNames() []string {
	return []string{"connecting", "streaming", "backoff", "circuit-open", "done"}
}

// backoffBounds are the upper bounds (seconds) of the per-source backoff
// histogram: millisecond retries through circuit cooldowns.
var backoffBounds = []float64{.001, .005, .01, .05, .1, .5, 1, 2, 5, 10, 30, 60}

// BackoffSnapshot is a point-in-time copy of a source's backoff
// histogram (non-cumulative bucket counts).
type BackoffSnapshot = metrics.HistogramSnapshot

// SourceStatus is a point-in-time copy of one source's supervision
// state, rendered into /healthz and /metrics by the serving layer.
type SourceStatus struct {
	Name  string
	Kind  string
	Addr  string
	State string

	// Connects counts every established connection (or opened file);
	// Reconnects counts connects after the first; Resumes counts
	// reconnects that armed the dedup gate.
	Connects   int64
	Reconnects int64
	Resumes    int64
	// CircuitOpens counts breaker trips; AcceptRetries counts transient
	// Accept errors survived by a listen source.
	CircuitOpens  int64
	AcceptRetries int64

	// ConnsActive/ConnsTotal/ConnsFailed account individual transport
	// connections (dial attempts or accepted push connections).
	ConnsActive int64
	ConnsTotal  int64
	ConnsFailed int64

	// Records counts admitted records; DedupDropped counts records the
	// resume gate rejected as already ingested.
	Records      int64
	DedupDropped int64

	// ConsecutiveFailures is the live breaker streak.
	ConsecutiveFailures int64
	// LastError is the most recent connection-level error, if any.
	LastError string
	// Watermark is the newest admitted record time.
	Watermark time.Time

	Backoff BackoffSnapshot
}

// Source is one supervised feed. All methods are safe for concurrent
// use: a listen source admits records from many connection goroutines
// while the serving layer snapshots it for metrics.
type Source struct {
	spec  Spec
	dedup bool // resume dedup armed on reconnect (dial sources only)

	mu      sync.Mutex
	state   State
	lastErr error

	// Resume gate: watermark is the newest admitted record time and
	// frontier holds the line hashes admitted at exactly that second.
	// After a reconnect the gate drops records strictly older than the
	// threshold, drops threshold-second records already in the frontier,
	// and disarms at the first strictly newer record — so an upstream
	// replaying from its buffer start cannot double-ingest, even when
	// many records share the watermark second.
	watermark       time.Time
	frontier        map[uint64]struct{}
	resuming        bool
	resumeThreshold time.Time
	line            []byte // lineHash's rendering scratch

	connects      int64
	reconnects    int64
	resumes       int64
	circuitOpens  int64
	acceptRetries int64
	connsActive   int64
	connsTotal    int64
	connsFailed   int64
	records       int64
	dedupDropped  int64
	streak        int64
	halfOpen      bool

	backoff *metrics.Histogram // supervised pauses; atomic, not under mu
}

func newSource(spec Spec) *Source {
	return &Source{
		spec:    spec,
		dedup:   spec.Kind == KindDial,
		backoff: metrics.NewHistogram(backoffBounds...),
	}
}

// State returns the current supervision state.
func (s *Source) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// lineHash fingerprints a record by the FNV-1a hash of its canonical CSV
// rendering, so the frontier distinguishes different records sharing one
// report second. The caller holds s.mu.
func (s *Source) lineHash(rec trace.Record) uint64 {
	s.line = rec.AppendCSV(s.line[:0])
	h := uint64(14695981039346656037)
	for _, c := range s.line {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// Admit is the exactly-once gate: it returns false for records the
// resume logic recognises as already ingested on a previous connection,
// and true otherwise, maintaining the watermark and frontier either way.
// The serving layer must consult it before dispatching a record.
func (s *Source) Admit(rec trace.Record) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dedup {
		s.records++
		if rec.Time.After(s.watermark) {
			s.watermark = rec.Time
		}
		return true
	}
	var h uint64
	hashed := false
	if s.resuming {
		switch {
		case rec.Time.Before(s.resumeThreshold):
			s.dedupDropped++
			return false
		case rec.Time.Equal(s.resumeThreshold):
			h, hashed = s.lineHash(rec), true
			if _, dup := s.frontier[h]; dup {
				s.dedupDropped++
				return false
			}
		default:
			s.resuming = false
		}
	}
	switch {
	case rec.Time.After(s.watermark):
		if !hashed {
			h = s.lineHash(rec)
		}
		s.watermark = rec.Time
		if s.frontier == nil {
			s.frontier = map[uint64]struct{}{}
		}
		clear(s.frontier)
		s.frontier[h] = struct{}{}
	case rec.Time.Equal(s.watermark):
		if !hashed {
			h = s.lineHash(rec)
		}
		s.frontier[h] = struct{}{}
	}
	s.records++
	return true
}

// armResume arms the dedup gate for the replay an upstream may send
// after a reconnect. It reports whether the gate armed (dial sources
// with at least one admitted record).
func (s *Source) armResume() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dedup || s.watermark.IsZero() {
		return false
	}
	s.resuming = true
	s.resumeThreshold = s.watermark
	s.resumes++
	return true
}

func (s *Source) setState(st State) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

// noteFailure records a connection-level failure for the breaker streak.
func (s *Source) noteFailure(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.streak++
	if err != nil {
		s.lastErr = err
	}
}

// clearStreak resets the breaker streak after a productive connection,
// closing a half-open circuit for good.
func (s *Source) clearStreak() {
	s.mu.Lock()
	s.streak = 0
	s.halfOpen = false
	s.mu.Unlock()
}

func (s *Source) failureStreak() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streak
}

// openCircuit trips the breaker. The streak resets so the cooldown ends
// in the half-open state: exactly one probe attempt, whose outcome
// either closes the circuit (clearStreak) or re-opens it immediately
// with the full cooldown (probeFailed).
func (s *Source) openCircuit() {
	s.mu.Lock()
	s.state = StateCircuitOpen
	s.circuitOpens++
	s.streak = 0
	s.halfOpen = true
	s.mu.Unlock()
}

// probeFailed reports whether the source is half-open and its single
// probe attempt failed — the condition that re-opens the circuit
// without granting the rest of the failure budget.
func (s *Source) probeFailed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.halfOpen && s.streak > 0
}

// connOpened accounts one established connection.
func (s *Source) connOpened(reconnect bool) {
	s.mu.Lock()
	s.connects++
	if reconnect {
		s.reconnects++
	}
	s.connsTotal++
	s.connsActive++
	s.state = StateStreaming
	s.mu.Unlock()
}

// connFailed accounts one connection that never established.
func (s *Source) connFailed(err error) {
	s.mu.Lock()
	s.connsFailed++
	s.streak++
	if err != nil {
		s.lastErr = err
	}
	s.mu.Unlock()
}

// connClosed accounts the end of an established connection. A listen
// source with no remaining connections shows "connecting" again — it is
// waiting for pushers, not streaming.
func (s *Source) connClosed(err error) {
	s.mu.Lock()
	s.connsActive--
	if err != nil {
		s.lastErr = err
	}
	if s.connsActive == 0 && s.state == StateStreaming {
		s.state = StateConnecting
	}
	s.mu.Unlock()
}

// acceptRetried accounts one transient Accept error survived.
func (s *Source) acceptRetried(err error) {
	s.mu.Lock()
	s.acceptRetries++
	if err != nil {
		s.lastErr = err
	}
	s.mu.Unlock()
}

// Status returns a point-in-time copy of the source's counters.
func (s *Source) Status() SourceStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SourceStatus{
		Name:                s.spec.Name,
		Kind:                s.spec.Kind.String(),
		Addr:                s.spec.Addr,
		State:               s.state.String(),
		Connects:            s.connects,
		Reconnects:          s.reconnects,
		Resumes:             s.resumes,
		CircuitOpens:        s.circuitOpens,
		AcceptRetries:       s.acceptRetries,
		ConnsActive:         s.connsActive,
		ConnsTotal:          s.connsTotal,
		ConnsFailed:         s.connsFailed,
		Records:             s.records,
		DedupDropped:        s.dedupDropped,
		ConsecutiveFailures: s.streak,
		Watermark:           s.watermark,
		Backoff:             s.backoff.Snapshot(),
	}
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	return st
}
