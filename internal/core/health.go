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
	// Stale: the estimate exists but has aged past FaultPolicy.StaleAfter
	// (or the approach has produced no estimate at all).
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
// approach may hold, when repeated failures bench an approach, and when
// an estimate stops counting as fresh. The zero policy disables caps,
// quarantine and staleness tracking — the pre-hardening behaviour.
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
	// Backoff is the first quarantine duration in seconds; each
	// consecutive failure after release doubles it up to BackoffMax.
	Backoff    float64
	BackoffMax float64
	// StaleAfter is the estimate age in seconds beyond which health
	// degrades from Fresh to Stale. 0 means estimates never go stale.
	StaleAfter float64
}

// DefaultFaultPolicy matches the default realtime cadence: estimates
// refresh every 5 minutes, so three missed refreshes mean stale; three
// straight failures bench an approach for two intervals, doubling to two
// hours.
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{
		MaxBufferPerKey: 20000,
		QuarantineAfter: 3,
		Backoff:         600,
		BackoffMax:      7200,
		StaleAfter:      900,
	}
}

// Validate checks the policy.
func (p FaultPolicy) Validate() error {
	if p.MaxBufferPerKey < 0 || p.QuarantineAfter < 0 {
		return fmt.Errorf("core: negative fault-policy count %+v", p)
	}
	if p.Backoff < 0 || p.BackoffMax < 0 || p.StaleAfter < 0 {
		return fmt.Errorf("core: negative fault-policy duration %+v", p)
	}
	if p.QuarantineAfter > 0 && p.Backoff <= 0 {
		return fmt.Errorf("core: quarantine enabled with zero backoff")
	}
	if p.BackoffMax > 0 && p.BackoffMax < p.Backoff {
		return fmt.Errorf("core: BackoffMax %v below Backoff %v", p.BackoffMax, p.Backoff)
	}
	return nil
}

// approachHealth is the engine's internal per-approach failure ledger.
type approachHealth struct {
	consecutiveFailures int
	quarantines         int
	lastErr             error
	lastSuccess         float64 // stream time of last good estimate
	everSucceeded       bool
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
		Approaches:             make(map[mapmatch.Key]ApproachHealth, len(e.estimates)+len(e.health)),
		DroppedOldRecords:      e.droppedOld,
		DroppedOverflowRecords: e.droppedOverflow,
	}
	for _, kb := range e.buf {
		rep.BufferedRecords += len(kb.ms)
	}
	for k := range e.estimates {
		rep.Approaches[k] = e.approachHealthLocked(k)
	}
	for k := range e.health {
		if _, ok := rep.Approaches[k]; !ok {
			rep.Approaches[k] = e.approachHealthLocked(k)
		}
	}
	return rep
}

// approachHealthLocked assembles the exported snapshot for one key.
func (e *Engine) approachHealthLocked(k mapmatch.Key) ApproachHealth {
	out := ApproachHealth{LastSuccessAt: -1, EstimateAge: math.Inf(1)}
	if h := e.health[k]; h != nil {
		out.ConsecutiveFailures = h.consecutiveFailures
		out.Quarantines = h.quarantines
		if h.lastErr != nil {
			out.LastError = h.lastErr.Error()
		}
		if h.everSucceeded {
			out.LastSuccessAt = h.lastSuccess
		}
		out.QuarantinedUntil = h.quarantinedUntil
	}
	if res, ok := e.estimates[k]; ok {
		out.EstimateAge = e.now - res.WindowEnd
	}
	out.State = e.healthStateLocked(k, out.EstimateAge)
	return out
}

// healthStateLocked classifies one key given its estimate age.
func (e *Engine) healthStateLocked(k mapmatch.Key, age float64) HealthState {
	if h := e.health[k]; h != nil && h.quarantinedUntil > e.now {
		return Quarantined
	}
	if math.IsInf(age, 1) {
		return Stale
	}
	if sa := e.cfg.Faults.StaleAfter; sa > 0 && age > sa {
		return Stale
	}
	return Fresh
}

// healthFor returns (creating if needed) the internal ledger for a key.
// Callers must hold e.mu.
func (e *Engine) healthFor(k mapmatch.Key) *approachHealth {
	h := e.health[k]
	if h == nil {
		h = &approachHealth{}
		e.health[k] = h
	}
	return h
}

// recordFailureLocked notes one identification failure and applies the
// quarantine policy: after QuarantineAfter consecutive failures the key
// is benched for the current backoff, which doubles (capped) on each
// further failure once released.
func (e *Engine) recordFailureLocked(k mapmatch.Key, at float64, err error) {
	h := e.healthFor(k)
	h.consecutiveFailures++
	h.lastErr = err
	p := e.cfg.Faults
	if p.QuarantineAfter <= 0 || h.consecutiveFailures < p.QuarantineAfter {
		return
	}
	if h.backoff == 0 {
		h.backoff = p.Backoff
	} else {
		h.backoff *= 2
		if p.BackoffMax > 0 && h.backoff > p.BackoffMax {
			h.backoff = p.BackoffMax
		}
	}
	h.quarantinedUntil = at + h.backoff
	h.quarantines++
}

// recordSuccessLocked resets the failure ledger after a good estimate.
func (e *Engine) recordSuccessLocked(k mapmatch.Key, at float64) {
	h := e.healthFor(k)
	h.consecutiveFailures = 0
	h.backoff = 0
	h.quarantinedUntil = 0
	h.lastSuccess = at
	h.everSucceeded = true
}
