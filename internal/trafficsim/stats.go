package trafficsim

import (
	"sort"

	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
)

// ApproachStats aggregates observed signal-queue behaviour at one
// approach — the simulator-side ground truth that validates both the
// trace statistics (Fig. 2(c)) and the navigation package's closed-form
// expected wait.
type ApproachStats struct {
	// Arrivals counts vehicles that joined the queue.
	Arrivals int
	// Departures counts vehicles released through the stop line from the
	// queue.
	Departures int
	// TotalWait is the summed queue time of departed vehicles, seconds.
	TotalWait float64
	// MaxQueue is the deepest queue observed, vehicles.
	MaxQueue int
}

// MeanWait returns the mean queue wait of departed vehicles.
func (s ApproachStats) MeanWait() float64 {
	if s.Departures == 0 {
		return 0
	}
	return s.TotalWait / float64(s.Departures)
}

// statsCollector accumulates ApproachStats, keyed by queueIndex; attached
// to a Simulator via EnableStats.
type statsCollector struct {
	perApproach map[int]*ApproachStats
	joinedAt    map[int]float64 // vehicle id -> queue join time
}

// EnableStats switches on queue statistics collection. Call before
// stepping; statistics cover only the period after enabling.
func (s *Simulator) EnableStats() {
	if s.stats != nil {
		return
	}
	s.stats = &statsCollector{
		perApproach: map[int]*ApproachStats{},
		joinedAt:    map[int]float64{},
	}
}

// Stats returns the collected statistics for one approach (zero value if
// none collected or stats disabled).
func (s *Simulator) Stats(node roadnet.NodeID, a lights.Approach) ApproachStats {
	if s.stats == nil {
		return ApproachStats{}
	}
	st := s.stats.perApproach[queueIndex(node, a)]
	if st == nil {
		return ApproachStats{}
	}
	return *st
}

// StatsKeys lists the approaches with collected statistics, in
// deterministic order.
func (s *Simulator) StatsKeys() []struct {
	Node     roadnet.NodeID
	Approach lights.Approach
} {
	if s.stats == nil {
		return nil
	}
	keys := make([]int, 0, len(s.stats.perApproach))
	for k := range s.stats.perApproach {
		keys = append(keys, k)
	}
	sort.Ints(keys) // node-major, NS before EW
	out := make([]struct {
		Node     roadnet.NodeID
		Approach lights.Approach
	}, len(keys))
	for i, k := range keys {
		out[i].Node = roadnet.NodeID(k / 2)
		out[i].Approach = lights.Approach(k % 2)
	}
	return out
}

// noteJoin records a queue join (called from joinQueue).
func (c *statsCollector) noteJoin(key, vehID int, now float64, queueLen int) {
	st := c.perApproach[key]
	if st == nil {
		st = &ApproachStats{}
		c.perApproach[key] = st
	}
	st.Arrivals++
	if queueLen > st.MaxQueue {
		st.MaxQueue = queueLen
	}
	c.joinedAt[vehID] = now
}

// noteRelease records a queue departure (called from releaseQueues).
func (c *statsCollector) noteRelease(key, vehID int, now float64) {
	st := c.perApproach[key]
	if st == nil {
		st = &ApproachStats{}
		c.perApproach[key] = st
	}
	st.Departures++
	if t0, ok := c.joinedAt[vehID]; ok {
		st.TotalWait += now - t0
		delete(c.joinedAt, vehID)
	}
}
