// Package mapmatch implements the paper's data-preprocessing stage
// (Section IV): snapping noisy GPS reports onto road segments with the
// heading-consistency rule of Fig. 5, and partitioning the records by the
// traffic light that controls them so each light's identification job can
// run independently — and hence in parallel.
package mapmatch

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
)

// Config tunes the matcher.
type Config struct {
	// MaxMatchDist is the largest snap distance in metres; urban GPS
	// errors reach ~100 m, so the default is generous.
	MaxMatchDist float64
	// MaxHeadingDiff is the largest tolerated angle between the report's
	// heading and the segment direction, in degrees. A GPS point whose
	// nearest segment fails this test is reassigned to the nearest
	// segment that passes it (the v2 -> m2 case of Fig. 5).
	MaxHeadingDiff float64
	// MaxLightDist is how far (metres, along-the-road distance to the
	// stop line) a matched record may sit from its controlling light and
	// still be attributed to it. Records mid-block between two far-apart
	// lights carry little signal-timing information.
	MaxLightDist float64
	// Workers bounds the parallel partitioner; 0 means GOMAXPROCS.
	Workers int
}

// DefaultConfig returns matcher settings adequate for the synthetic
// Shenzhen-like networks used in the experiments.
func DefaultConfig() Config {
	return Config{
		MaxMatchDist:   120,
		MaxHeadingDiff: 30,
		MaxLightDist:   450,
		Workers:        0,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.MaxMatchDist <= 0:
		return fmt.Errorf("mapmatch: non-positive match distance %v", c.MaxMatchDist)
	case c.MaxHeadingDiff <= 0 || c.MaxHeadingDiff > 180:
		return fmt.Errorf("mapmatch: heading tolerance %v outside (0, 180]", c.MaxHeadingDiff)
	case c.MaxLightDist <= 0:
		return fmt.Errorf("mapmatch: non-positive light distance %v", c.MaxLightDist)
	case c.Workers < 0:
		return fmt.Errorf("mapmatch: negative worker count %d", c.Workers)
	}
	return nil
}

// Matched is one successfully matched record with its road context. It
// is what crosses from the dispatcher to the shard engines in batches, so
// it carries only the three fields of the source record anything
// downstream of the matcher reads — 88 bytes against 184 with the whole
// trace.Record embedded.
type Matched struct {
	// Plate, SpeedKMH and Occupied are copied from the source record.
	// Plate shares the record's (interned) string.
	Plate    string
	SpeedKMH float64
	Occupied bool
	// Seg is the directed segment the record was snapped to.
	Seg *roadnet.Segment
	// Light is the node of the traffic light controlling this record
	// (the downstream end of the matched segment).
	Light roadnet.NodeID
	// Approach is the signal approach (NS or EW) of the segment.
	Approach lights.Approach
	// T is the record time in seconds since the matcher epoch.
	T float64
	// DistToStop is the along-road distance from the snapped position to
	// the stop line (the downstream node), in metres.
	DistToStop float64
	// Snapped is the planar position after snapping.
	Snapped geo.XY
}

// Key identifies one partition: a single signal approach of one light.
type Key struct {
	Light    roadnet.NodeID
	Approach lights.Approach
}

// Partition groups matched records per signal approach, each slice sorted
// by time.
type Partition map[Key][]Matched

// Matcher snaps records to a network and partitions them by light.
type Matcher struct {
	net   *roadnet.Network
	cfg   Config
	epoch time.Time
	zone  zoneMask
}

// New builds a Matcher for a finalized network. epoch maps record
// timestamps onto the second axis used by the identification algorithms.
func New(net *roadnet.Network, epoch time.Time, cfg Config) (*Matcher, error) {
	if net == nil {
		return nil, fmt.Errorf("mapmatch: nil network")
	}
	if epoch.IsZero() {
		return nil, fmt.Errorf("mapmatch: zero epoch")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Matcher{net: net, cfg: cfg, epoch: epoch, zone: buildZoneMask(net, cfg)}, nil
}

// Match snaps one record. ok is false when the record is unusable: GPS
// marked unavailable, invalid fields, no segment within range, or no
// signalised downstream node within MaxLightDist.
func (m *Matcher) Match(rec trace.Record) (Matched, bool) {
	var stats MatchStats
	return m.MatchWithStats(rec, &stats)
}

// PartitionRecords matches every record in parallel and groups the
// successes by (light, approach), each group sorted by time. The input
// slice is not modified.
func (m *Matcher) PartitionRecords(recs []trace.Record) Partition {
	workers := m.cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(recs) {
		workers = len(recs)
	}
	if workers < 1 {
		workers = 1
	}
	parts := make([]Partition, workers)
	var wg sync.WaitGroup
	chunk := (len(recs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		if lo >= hi {
			parts[w] = Partition{}
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			p := Partition{}
			for _, rec := range recs[lo:hi] {
				if mt, ok := m.Match(rec); ok {
					p[Key{mt.Light, mt.Approach}] = append(p[Key{mt.Light, mt.Approach}], mt)
				}
			}
			parts[w] = p
		}(w, lo, hi)
	}
	wg.Wait()
	merged := Partition{}
	for _, p := range parts {
		for k, ms := range p {
			merged[k] = append(merged[k], ms...)
		}
	}
	for _, ms := range merged {
		sortByTime(ms)
	}
	return merged
}

// sortByTime stable-sorts one approach's records by time. The comparator
// is the three-way form of `<`, not cmp.Compare: the two differ on NaN.
func sortByTime(ms []Matched) {
	slices.SortStableFunc(ms, func(a, b Matched) int {
		switch {
		case a.T < b.T:
			return -1
		case b.T < a.T:
			return 1
		}
		return 0
	})
}

// PerpendicularKey returns the partition key of the perpendicular approach
// at the same light, the data source for the intersection-based
// enhancement.
func (k Key) PerpendicularKey() Key {
	other := lights.NorthSouth
	if k.Approach == lights.NorthSouth {
		other = lights.EastWest
	}
	return Key{Light: k.Light, Approach: other}
}

// MatchStats summarises a matching run: how many records matched, how
// many needed the stopped-vehicle fallback, and why the rest failed —
// the observability a production ingest pipeline needs to notice GPS
// degradation or map drift.
type MatchStats struct {
	Total int
	// Matched counts records snapped via the heading-consistent rule.
	Matched int
	// FallbackMatched counts stopped records snapped by the plain-
	// nearest fallback (stale heading).
	FallbackMatched int
	// RejectedGPS counts records with GPS condition 0 or invalid fields.
	RejectedGPS int
	// RejectedNoSegment counts records with no usable segment in range.
	RejectedNoSegment int
}

// MatchRate returns the fraction of records successfully matched.
func (s MatchStats) MatchRate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Matched+s.FallbackMatched) / float64(s.Total)
}

// MatchWithStats is Match plus classification of the outcome.
func (m *Matcher) MatchWithStats(rec trace.Record, stats *MatchStats) (Matched, bool) {
	stats.Total++
	if !rec.GPSOK || rec.Validate() != nil {
		stats.RejectedGPS++
		return Matched{}, false
	}
	q := m.net.Projection().Forward(geo.Point{Lat: rec.Lat, Lon: rec.Lon})
	if !m.zone.canMatch(q) {
		// Nowhere near the last MaxLightDist of a road into a light: both
		// Snap calls below would come back empty (buildZoneMask).
		stats.RejectedNoSegment++
		return Matched{}, false
	}
	// A light-identification job can use only a segment whose downstream
	// node is signalised, and only a position on it within MaxLightDist of
	// that stop line.
	signalised := func(s *roadnet.Segment) bool { return m.net.Node(s.To).Signalised() }
	nearLight := func(s *roadnet.Segment, frac float64) bool {
		return (1-frac)*s.Length() <= m.cfg.MaxLightDist
	}
	// Fig. 5: prefer the nearest heading-consistent segment; fall back to
	// ignoring the heading only when the taxi is stopped (heading is
	// stale noise at speed zero).
	sn, ok := m.net.Snap(q, m.cfg.MaxMatchDist, func(s *roadnet.Segment) bool {
		return signalised(s) && geo.HeadingDiff(s.Heading(), rec.Heading) <= m.cfg.MaxHeadingDiff
	}, nearLight)
	fallback := false
	if !ok && rec.SpeedKMH == 0 {
		sn, ok = m.net.Snap(q, m.cfg.MaxMatchDist, signalised, nearLight)
		fallback = ok
	}
	if !ok {
		stats.RejectedNoSegment++
		return Matched{}, false
	}
	if fallback {
		stats.FallbackMatched++
	} else {
		stats.Matched++
	}
	return Matched{
		Plate:      rec.Plate,
		SpeedKMH:   rec.SpeedKMH,
		Occupied:   rec.Occupied,
		Seg:        sn.Seg,
		Light:      sn.Seg.To,
		Approach:   sn.Seg.Approach(),
		T:          rec.Time.Sub(m.epoch).Seconds(),
		DistToStop: (1 - sn.Frac) * sn.Seg.Length(),
		Snapped:    sn.Pos,
	}, true
}

// PartitionRecordsWithStats is PartitionRecords plus aggregate matching
// statistics for the whole batch.
func (m *Matcher) PartitionRecordsWithStats(recs []trace.Record) (Partition, MatchStats) {
	var stats MatchStats
	p := Partition{}
	for _, rec := range recs {
		if mt, ok := m.MatchWithStats(rec, &stats); ok {
			k := Key{mt.Light, mt.Approach}
			p[k] = append(p[k], mt)
		}
	}
	for _, ms := range p {
		sortByTime(ms)
	}
	return p, stats
}
