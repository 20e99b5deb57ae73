// Package store is the durability layer of the serving stack: a
// segmented, CRC-framed append-only log (WAL) of published per-approach
// estimates, periodic full checkpoints of engine state, background
// compaction with retention by age and size, and a read path answering
// "as-of t" time-travel queries over the estimate history. A serving
// daemon appends every published estimate asynchronously and checkpoints
// on a timer; after a crash, Open recovers the newest valid checkpoint,
// replays only the WAL tail written after it, and truncates any torn
// tail frame left by the crash. DESIGN.md §9 states the invariants.
package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Record is one persisted estimate: the durable form of a successful
// core.Result for one signal approach, stamped with the store-assigned
// append sequence number. The field set is explicit (rather than
// embedding core.Result) so the on-disk format is stable against
// in-memory refactors.
type Record struct {
	// Seq is the store-wide append sequence number, assigned by Append;
	// it strictly increases across segments and anchors checkpoints
	// ("replay everything after seq N").
	Seq uint64
	// Light and Approach identify the signal approach.
	Light    int64
	Approach uint8
	// Cycle, Red and Green are the identified durations, seconds.
	Cycle, Red, Green float64
	// GreenToRedPhase and RedToGreenPhase are the signal-change phases
	// within [0, Cycle), measured from WindowStart.
	GreenToRedPhase, RedToGreenPhase float64
	// WindowStart and WindowEnd delimit the analysed window; WindowEnd
	// is the estimate's publication time on the stream axis and the
	// timestamp history queries select on.
	WindowStart, WindowEnd float64
	// Quality is the fold score of the accepted cycle.
	Quality float64
	// Records and Stops count the inputs that survived preprocessing.
	Records, Stops int32
	// Enhanced reports whether the perpendicular approach's samples were
	// mirrored into the cycle input.
	Enhanced bool
}

// recordVersion tags the payload encoding; bump it when the field set
// changes so old stores are rejected loudly instead of misparsed.
const recordVersion = 1

// encodedRecordSize is the fixed payload size of one version-1 record.
const encodedRecordSize = 1 + 8 + 8 + 1 + 1 + 8*8 + 4 + 4

// Key returns the partition key the record belongs to.
func (r Record) Key() mapmatch.Key {
	return mapmatch.Key{Light: roadnet.NodeID(r.Light), Approach: lights.Approach(r.Approach)}
}

// Result converts the record back to the pipeline's result type.
func (r Record) Result() core.Result {
	return core.Result{
		Key:             r.Key(),
		Cycle:           r.Cycle,
		Red:             r.Red,
		Green:           r.Green,
		GreenToRedPhase: r.GreenToRedPhase,
		RedToGreenPhase: r.RedToGreenPhase,
		WindowStart:     r.WindowStart,
		WindowEnd:       r.WindowEnd,
		Records:         int(r.Records),
		Stops:           int(r.Stops),
		Enhanced:        r.Enhanced,
		Quality:         r.Quality,
	}
}

// FromResult builds the durable form of one successful result. It
// returns ok=false for results that carry no persistable schedule
// (failed identification or non-positive cycle) — the same entries
// Engine.RestoreState skips on the way back in.
func FromResult(res core.Result) (Record, bool) {
	if res.Err != nil || res.Cycle <= 0 {
		return Record{}, false
	}
	return Record{
		Light:           int64(res.Key.Light),
		Approach:        uint8(res.Key.Approach),
		Cycle:           res.Cycle,
		Red:             res.Red,
		Green:           res.Green,
		GreenToRedPhase: res.GreenToRedPhase,
		RedToGreenPhase: res.RedToGreenPhase,
		WindowStart:     res.WindowStart,
		WindowEnd:       res.WindowEnd,
		Quality:         res.Quality,
		Records:         int32(res.Records),
		Stops:           int32(res.Stops),
		Enhanced:        res.Enhanced,
	}, true
}

// encode appends the fixed-size payload encoding of r to dst.
func (r Record) encode(dst []byte) []byte {
	var b [encodedRecordSize]byte
	b[0] = recordVersion
	binary.LittleEndian.PutUint64(b[1:], r.Seq)
	binary.LittleEndian.PutUint64(b[9:], uint64(r.Light))
	b[17] = r.Approach
	if r.Enhanced {
		b[18] = 1
	}
	off := 19
	for _, f := range [...]float64{
		r.Cycle, r.Red, r.Green, r.GreenToRedPhase, r.RedToGreenPhase,
		r.WindowStart, r.WindowEnd, r.Quality,
	} {
		binary.LittleEndian.PutUint64(b[off:], floatBits(f))
		off += 8
	}
	binary.LittleEndian.PutUint32(b[off:], uint32(r.Records))
	binary.LittleEndian.PutUint32(b[off+4:], uint32(r.Stops))
	return append(dst, b[:]...)
}

// decodeRecord parses one payload produced by encode.
func decodeRecord(b []byte) (Record, error) {
	if len(b) != encodedRecordSize {
		return Record{}, fmt.Errorf("store: record payload %d bytes, want %d", len(b), encodedRecordSize)
	}
	if b[0] != recordVersion {
		return Record{}, fmt.Errorf("store: record version %d, want %d", b[0], recordVersion)
	}
	var r Record
	r.Seq = binary.LittleEndian.Uint64(b[1:])
	r.Light = int64(binary.LittleEndian.Uint64(b[9:]))
	r.Approach = b[17]
	r.Enhanced = b[18] != 0
	off := 19
	for _, dst := range [...]*float64{
		&r.Cycle, &r.Red, &r.Green, &r.GreenToRedPhase, &r.RedToGreenPhase,
		&r.WindowStart, &r.WindowEnd, &r.Quality,
	} {
		*dst = floatFromBits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	r.Records = int32(binary.LittleEndian.Uint32(b[off:]))
	r.Stops = int32(binary.LittleEndian.Uint32(b[off+4:]))
	return r, nil
}
