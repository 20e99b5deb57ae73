package core

import (
	"fmt"
	"math"

	"taxilight/internal/mapmatch"
)

// HealthState classifies how trustworthy an approach's estimate is right
// now. The engine keeps serving the last good estimate in every state —
// degraded operation beats no operation for the paper's applications —
// but consumers routing on Stale or Quarantined answers know to widen
// their margins.
type HealthState int

const (
	// Fresh: the latest estimate is recent enough to answer live
	// red/green queries at full confidence.
	Fresh HealthState = iota
	// Stale: the estimate exists but has aged past staleIntervals
	// re-estimation intervals (or the approach has produced no estimate
	// at all).
	Stale
	// Quarantined: the approach failed identification repeatedly and is
	// benched until its backoff expires.
	Quarantined
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case Fresh:
		return "fresh"
	case Stale:
		return "stale"
	case Quarantined:
		return "quarantined"
	}
	return fmt.Sprintf("HealthState(%d)", int(s))
}

// FaultPolicy tunes the engine's failure isolation: how much memory one
// approach may hold and when repeated failures bench an approach. The
// zero policy disables both. When an estimate stops counting as fresh and
// how long a benched approach sits out follow the re-estimation cadence
// (staleIntervals, backoffIntervals, backoffMaxIntervals).
type FaultPolicy struct {
	// MaxBufferPerKey caps the ingest buffer of one approach, in
	// records; overflow evicts the oldest quarter. Without a cap a
	// lagging Advance lets a single hot (or clock-broken) approach grow
	// without bound. 0 disables the cap.
	MaxBufferPerKey int
	// QuarantineAfter is the number of consecutive identification
	// failures after which an approach is quarantined. 0 disables
	// quarantine.
	QuarantineAfter int
}

// The policy's durations, in re-estimation intervals: an estimate three
// missed refreshes old is stale, and a quarantine lasts two intervals,
// doubling on each further failure after release up to 24. At the paper's
// 5-minute cadence that is 15 minutes, 10 minutes and two hours; at any
// other cadence a healthy estimate stays fresh until its next refresh is
// overdue, and the first quarantine still benches the next round.
const (
	staleIntervals      = 3
	backoffIntervals    = 2
	backoffMaxIntervals = 24
)

// DefaultFaultPolicy caps each approach at 20000 buffered records and
// benches it after three straight failures.
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{MaxBufferPerKey: 20000, QuarantineAfter: 3}
}

// Validate checks the policy.
func (p FaultPolicy) Validate() error {
	if p.MaxBufferPerKey < 0 || p.QuarantineAfter < 0 {
		return fmt.Errorf("core: negative fault-policy count %+v", p)
	}
	return nil
}

// approachHealth is the engine's internal per-approach failure ledger.
type approachHealth struct {
	consecutiveFailures int
	quarantines         int
	lastErr             error
	quarantinedUntil    float64
	backoff             float64 // current quarantine duration
}

// ApproachHealth is the exported health snapshot of one approach.
type ApproachHealth struct {
	State HealthState
	// ConsecutiveFailures counts identification failures since the last
	// success; Quarantines counts how often the approach was benched.
	ConsecutiveFailures int
	Quarantines         int
	// LastError is the most recent identification failure, "" if none.
	LastError string
	// LastSuccessAt is the stream time of the last good estimate, -1 if
	// the approach never produced one.
	LastSuccessAt float64
	// QuarantinedUntil is the stream time the current quarantine expires;
	// only meaningful when State is Quarantined.
	QuarantinedUntil float64
	// EstimateAge is seconds since the last published estimate's window
	// end, +Inf when no estimate exists.
	EstimateAge float64
}

// HealthReport is the engine-wide degraded-operation report.
type HealthReport struct {
	// Now is the engine's stream clock.
	Now float64
	// Approaches holds per-approach health for every key the engine has
	// estimated or attempted.
	Approaches map[mapmatch.Key]ApproachHealth
	// DroppedOldRecords counts records rejected at ingest because no
	// future window could reach them (older than the next pending
	// round's window start); DroppedOverflowRecords counts records
	// evicted by the per-key buffer cap.
	DroppedOldRecords      int64
	DroppedOverflowRecords int64
	// BufferedRecords is the total number of records currently held
	// across all per-key ingest buffers.
	BufferedRecords int
}

// QuarantinedKeys lists the keys currently benched, useful for operator
// dashboards and the fault-injection soak assertions.
func (r HealthReport) QuarantinedKeys() []mapmatch.Key {
	var out []mapmatch.Key
	for k, h := range r.Approaches {
		if h.State == Quarantined {
			out = append(out, k)
		}
	}
	return out
}

// Health returns the engine-wide degraded-operation report.
func (e *Engine) Health() HealthReport {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rep := HealthReport{
		Now:                    e.now,
		Approaches:             make(map[mapmatch.Key]ApproachHealth, len(e.approaches)),
		DroppedOldRecords:      e.droppedOld,
		DroppedOverflowRecords: e.droppedOverflow,
	}
	for k, a := range e.approaches {
		rep.BufferedRecords += a.buf.n
		if a.reported() {
			rep.Approaches[k] = e.approachHealthLocked(a)
		}
	}
	return rep
}

// approachHealthLocked assembles the exported snapshot for one approach.
func (e *Engine) approachHealthLocked(a *approach) ApproachHealth {
	h := &a.health
	out := ApproachHealth{
		LastSuccessAt:       -1,
		EstimateAge:         math.Inf(1),
		ConsecutiveFailures: h.consecutiveFailures,
		Quarantines:         h.quarantines,
		QuarantinedUntil:    h.quarantinedUntil,
	}
	if h.lastErr != nil {
		out.LastError = h.lastErr.Error()
	}
	if a.published { // a success is a publish, at its window end
		out.LastSuccessAt, out.EstimateAge = a.est.WindowEnd, e.now-a.est.WindowEnd
	}
	out.State = e.healthStateLocked(a, out.EstimateAge)
	return out
}

// healthStateLocked classifies one approach given its estimate age.
func (e *Engine) healthStateLocked(a *approach, age float64) HealthState {
	if a.health.quarantinedUntil > e.now {
		return Quarantined
	}
	if math.IsInf(age, 1) || age > staleIntervals*e.cfg.Interval {
		return Stale
	}
	return Fresh
}

// recordFailureLocked notes one identification failure and applies the
// quarantine policy: after QuarantineAfter consecutive failures the key
// is benched for the current backoff, which doubles (capped) on each
// further failure once released.
func (e *Engine) recordFailureLocked(a *approach, at float64, err error) {
	h := &a.health
	h.consecutiveFailures++
	h.lastErr = err
	if n := e.cfg.Faults.QuarantineAfter; n <= 0 || h.consecutiveFailures < n {
		return
	}
	iv := e.cfg.Interval
	h.backoff = min(max(2*h.backoff, backoffIntervals*iv), backoffMaxIntervals*iv)
	h.quarantinedUntil = at + h.backoff
	h.quarantines++
}
