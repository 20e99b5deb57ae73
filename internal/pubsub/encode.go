package pubsub

import (
	"math"
	"strconv"
	"sync"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
)

// The hot encode path is allocation-free at steady state: every field is
// appended with strconv.Append* into a caller-owned (usually pooled)
// buffer, and the static per-key JSON prefix is preserialized once at
// subscribe time — the same discipline as the engine's reused
// identification scratch (DESIGN.md §11). The /v1/state handler and the
// /v1/watch event frames share this encoder, so both read paths pay the
// same (near-zero) per-answer cost.

// bufPool recycles encode scratch buffers. Buffers are pooled as
// pointers so Get/Put do not allocate a slice header per call.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// GetBuffer returns a pooled scratch buffer for encoder output. Return
// it with PutBuffer when the encoded bytes have been written out.
func GetBuffer() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuffer recycles a buffer obtained from GetBuffer. The caller must
// not retain the contents afterwards.
func PutBuffer(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// appendFloat appends v as a JSON number. Non-finite values (which JSON
// cannot represent) degrade to 0 rather than corrupting the document.
func appendFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, '0')
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// AppendKeyPrefix appends `{"light":N,"approach":"NS"` — the static
// prefix of a state document for one key. The hub caches this per
// subscribed key so the per-event encode only appends dynamic fields.
func AppendKeyPrefix(dst []byte, k mapmatch.Key) []byte {
	dst = append(dst, `{"light":`...)
	dst = strconv.AppendInt(dst, int64(k.Light), 10)
	dst = append(dst, `,"approach":"`...)
	dst = append(dst, k.Approach.String()...)
	dst = append(dst, '"')
	return dst
}

// stateName returns the lowercase wire name of a light state without
// allocating.
func stateName(s lights.State) string {
	if s == lights.Red {
		return "red"
	}
	return "green"
}

// AppendStateTail appends everything after the key prefix of a state
// document: stream time, phase, countdown, health, the optional event
// version, and the full estimate object when one exists — then the
// closing brace. The resulting document is exactly the /v1/state body
// (plus "version" when withVersion is set), so a watch client and a
// polling client decode the same shape.
func AppendStateTail(dst []byte, k mapmatch.Key, t float64, est core.Estimate, health string, version uint64, withVersion bool) []byte {
	dst = append(dst, `,"t_s":`...)
	dst = appendFloat(dst, t)
	state, until, ok := est.PhaseAt(t)
	if ok {
		dst = append(dst, `,"state":"`...)
		dst = append(dst, stateName(state)...)
		dst = append(dst, `","countdown_s":`...)
		dst = appendFloat(dst, until)
		dst = append(dst, `,"next_state":"`...)
		next := lights.Red
		if state == lights.Red {
			next = lights.Green
		}
		dst = append(dst, stateName(next)...)
		dst = append(dst, '"')
	} else {
		dst = append(dst, `,"state":"unknown"`...)
	}
	dst = append(dst, `,"health":`...)
	dst = strconv.AppendQuote(dst, health)
	if withVersion {
		dst = append(dst, `,"version":`...)
		dst = strconv.AppendUint(dst, version, 10)
	}
	if est.Err == nil && est.Cycle > 0 {
		dst = append(dst, `,"estimate":`...)
		dst = AppendKeyPrefix(dst, k)
		dst = append(dst, `,"cycle_s":`...)
		dst = appendFloat(dst, est.Cycle)
		dst = append(dst, `,"red_s":`...)
		dst = appendFloat(dst, est.Red)
		dst = append(dst, `,"green_s":`...)
		dst = appendFloat(dst, est.Green)
		dst = append(dst, `,"green_to_red_phase_s":`...)
		dst = appendFloat(dst, est.GreenToRedPhase)
		dst = append(dst, `,"window_start_s":`...)
		dst = appendFloat(dst, est.WindowStart)
		dst = append(dst, `,"window_end_s":`...)
		dst = appendFloat(dst, est.WindowEnd)
		dst = append(dst, `,"quality":`...)
		dst = appendFloat(dst, est.Quality)
		dst = append(dst, `,"records":`...)
		dst = strconv.AppendInt(dst, int64(est.Records), 10)
		dst = append(dst, `,"age_s":`...)
		dst = appendFloat(dst, est.Age)
		dst = append(dst, `,"health":`...)
		dst = strconv.AppendQuote(dst, health)
		dst = append(dst, '}')
	}
	dst = append(dst, '}')
	return dst
}

// AppendState appends one complete state document for key k — the
// /v1/state body rendered without encoding/json.
func AppendState(dst []byte, k mapmatch.Key, t float64, est core.Estimate, health string, version uint64, withVersion bool) []byte {
	dst = AppendKeyPrefix(dst, k)
	return AppendStateTail(dst, k, t, est, health, version, withVersion)
}

// appendEventFrame appends one SSE frame for an event: the id line
// (the server's version-vector tag, which Last-Event-ID echoes back on
// resume), the event name, the state document as data, and the blank
// terminator. tmpl is the preserialized key prefix; pass nil to encode
// it on the fly (the catch-up path, where no registry entry exists).
func appendEventFrame(dst []byte, id string, tmpl []byte, k mapmatch.Key, t float64, ev Event) []byte {
	dst = append(dst, "id: "...)
	dst = append(dst, id...)
	dst = append(dst, "\nevent: estimate\ndata: "...)
	if tmpl != nil {
		dst = append(dst, tmpl...)
	} else {
		dst = AppendKeyPrefix(dst, k)
	}
	dst = AppendStateTail(dst, k, t, ev.Est, ev.Health, ev.Version, true)
	dst = append(dst, '\n', '\n')
	return dst
}

// AppendEventFrame is the exported form of appendEventFrame for the
// serving layer's catch-up path (initial events synthesized outside the
// hub's registry).
func AppendEventFrame(dst []byte, id string, k mapmatch.Key, t float64, ev Event) []byte {
	return appendEventFrame(dst, id, nil, k, t, ev)
}
