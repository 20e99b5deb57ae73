// Package trafficsim is the microscopic traffic simulator substituting for
// both the Shenzhen taxi fleet (trace generation) and SUMO (the navigation
// demo). It advances a fleet of taxis over a roadnet.Network in fixed
// 1-second ticks. Vehicles drive at free-flow speed, decelerate into FIFO
// queues at red lights, discharge with a saturation headway when the light
// turns green, and dwell at trip ends for passenger pick-up/drop-off —
// the behaviours the paper's identification algorithms depend on (stop-at-
// red visibility, periodic speed patterns, occupancy-change outliers).
//
// The design deliberately omits car-following between moving vehicles:
// interaction happens only through signal queues. At the 20-second-mean
// sampling rate and tens-of-metres GPS noise of the target traces, richer
// dynamics are statistically invisible, while queue formation and
// discharge — which carry the traffic-light periodicity — are modelled
// explicitly.
package trafficsim

import (
	"fmt"
	"math"
	"math/rand"

	"taxilight/internal/geo"
	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
)

// Tick is the simulation step in seconds.
const Tick = 1.0

// Config parameterises a Simulator.
type Config struct {
	Net      *roadnet.Network
	NumTaxis int
	Seed     int64
	// CarSpacing is the queue slot length per stopped vehicle in metres.
	CarSpacing float64
	// Headway is the queue discharge interval at green in seconds.
	Headway float64
	// Lanes is the number of parallel lanes per approach: each headway
	// releases Lanes vehicles, and queued vehicles stack Lanes abreast.
	// Urban arterials in the target city run 3-4 lanes per direction.
	Lanes int
	// Accel and Decel are comfortable rates in m/s².
	Accel, Decel float64
	// DwellMin/DwellMax bound the passenger pick-up/drop-off stop, seconds.
	DwellMin, DwellMax float64
	// DwellProb is the probability a finished trip ends with a kerbside
	// dwell (otherwise the taxi rolls straight into the next trip).
	DwellProb float64
	// DwellSetbackMin/Max bound how far upstream of the destination
	// intersection (metres) the kerbside stop happens: passengers board
	// and alight mid-block, not on the stop line. Zero values disable
	// the setback and dwell at the stop line.
	DwellSetbackMin, DwellSetbackMax float64
	// NodeWeights biases destination choice to recreate the paper's
	// highly unbalanced per-intersection flows (Table II). Nil means
	// uniform.
	NodeWeights map[roadnet.NodeID]float64
	// BackgroundRate adds invisible non-taxi traffic: a Poisson stream
	// of background vehicles per signal approach (vehicles/second) that join the
	// queues — occupying slots and discharge headways — but never emit
	// records. In the real city taxis are a thin sample of the queue;
	// zero disables the feature.
	BackgroundRate float64
	// StartTime is the epoch second at which the simulation begins.
	StartTime float64
}

// DefaultConfig returns plausible urban parameters for the given network.
func DefaultConfig(net *roadnet.Network) Config {
	return Config{
		Net:             net,
		NumTaxis:        200,
		Seed:            1,
		CarSpacing:      7,
		Headway:         2,
		Lanes:           3,
		Accel:           2.0,
		Decel:           3.0,
		DwellMin:        20,
		DwellMax:        120,
		DwellProb:       0.35,
		DwellSetbackMin: 80,
		DwellSetbackMax: 500,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Net == nil:
		return fmt.Errorf("trafficsim: nil network")
	case c.NumTaxis <= 0:
		return fmt.Errorf("trafficsim: need at least one taxi, got %d", c.NumTaxis)
	case c.CarSpacing <= 0 || c.Headway <= 0:
		return fmt.Errorf("trafficsim: non-positive spacing/headway")
	case c.Lanes < 1:
		return fmt.Errorf("trafficsim: need at least one lane, got %d", c.Lanes)
	case c.Accel <= 0 || c.Decel <= 0:
		return fmt.Errorf("trafficsim: non-positive accel/decel")
	case c.DwellMin < 0 || c.DwellMax < c.DwellMin:
		return fmt.Errorf("trafficsim: bad dwell range [%v, %v]", c.DwellMin, c.DwellMax)
	case c.DwellProb < 0 || c.DwellProb > 1:
		return fmt.Errorf("trafficsim: dwell probability %v outside [0,1]", c.DwellProb)
	case c.DwellSetbackMin < 0 || c.DwellSetbackMax < c.DwellSetbackMin:
		return fmt.Errorf("trafficsim: bad dwell setback range [%v, %v]", c.DwellSetbackMin, c.DwellSetbackMax)
	case c.BackgroundRate < 0 || c.BackgroundRate > 2:
		return fmt.Errorf("trafficsim: background rate %v outside [0, 2] veh/s", c.BackgroundRate)
	}
	return nil
}

type vehPhase int

const (
	phaseDriving vehPhase = iota
	phaseQueued
	phaseDwelling
)

// vehicle is the private per-taxi state.
type vehicle struct {
	id        int
	route     []roadnet.SegmentID
	segIdx    int
	dist      float64 // metres from segment start
	speed     float64 // m/s
	phase     vehPhase
	dwellTill float64
	occupied  bool
	// background marks an invisible non-taxi vehicle that exists only
	// inside a signal queue and vanishes once released.
	background bool
	queueIdx   int // position in the queue when phase == phaseQueued
	// dwellAt is the kerbside stop position (metres from the start of
	// the route's final segment), or -1 when no dwell is pending.
	dwellAt float64
	// seg and qi are route[segIdx] and the queue it feeds, kept by
	// enterSegment, the one writer, wherever route or segIdx changes.
	seg *roadnet.Segment
	qi  int
}

// signalQueue is one approach of one node: the light that controls it (nil
// at an unsignalised node), its FIFO of stopped vehicles, and the colour
// the light shows this tick.
type signalQueue struct {
	light       *lights.Intersection
	vehicles    []*vehicle
	lastRelease float64
	// setback is float64(len(vehicles)/Lanes)*CarSpacing: how far short of
	// the stop line the next arrival stops. enqueue and releaseQueues, the
	// only two writers of vehicles, keep it.
	setback float64
	// ordered marks a queue already listed in queueOrder.
	ordered bool
	// colour is the light's state at time colourAt. It is good for that
	// instant only — a Controller's schedule depends on the time — so every
	// reader goes through Simulator.colour, which asks the light once per
	// tick however many vehicles approach it.
	colour   lights.State
	colourAt float64
}

// queueIndex is an approach's place in Simulator.queues.
func queueIndex(node roadnet.NodeID, a lights.Approach) int { return 2*int(node) + int(a) }

// VehicleStats aggregates one taxi's activity: completed trips, odometer
// and a time-in-state breakdown. The sum of the three time buckets equals
// the simulated horizon.
type VehicleStats struct {
	// Trips counts completed trips (arrivals at a destination node).
	Trips int
	// Distance is the odometer in metres.
	Distance float64
	// DriveTime, QueueTime and DwellTime split the taxi's simulated
	// seconds by phase.
	DriveTime, QueueTime, DwellTime float64
}

// State is the public per-taxi snapshot handed to observers (the trace
// sampler, tests, the navigation evaluator).
type State struct {
	ID       int
	Pos      geo.XY
	SpeedMS  float64
	Heading  float64
	Occupied bool
	Segment  roadnet.SegmentID
	Stopped  bool
}

// Simulator advances the fleet. Create with New, call Step (or RunUntil),
// read States.
type Simulator struct {
	cfg      Config
	now      float64
	vehicles []*vehicle
	// queues holds both approaches of every node, at queueIndex.
	queues []signalQueue
	// queueOrder lists the queues that have held a vehicle, in the order
	// each first did. Servicing them in that order is part of every
	// generated trace: a released taxi that ends its trip draws its next
	// one from rng there and then.
	queueOrder []int
	stats      *statsCollector
	vstats     []VehicleStats
	rng        *rand.Rand
	// bgRng drives background arrivals separately so enabling them does
	// not perturb the taxi randomness stream.
	bgRng   *rand.Rand
	weights []float64 // cumulative node weights for destination sampling
	wTotal  float64
}

// New builds a simulator with taxis placed on random segments.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:    cfg,
		now:    cfg.StartTime,
		queues: make([]signalQueue, 2*cfg.Net.NumNodes()),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		bgRng:  rand.New(rand.NewSource(cfg.Seed + 777)),
	}
	for i := range s.queues {
		s.queues[i].light = cfg.Net.Node(roadnet.NodeID(i / 2)).Light
		s.queues[i].colourAt = math.NaN() // no instant yet
	}
	s.buildWeights()
	for i := 0; i < cfg.NumTaxis; i++ {
		v := &vehicle{id: i}
		s.assignNewTrip(v, s.randomNode())
		// Scatter along the first segment so the fleet does not start
		// phase-locked.
		v.dist = s.rng.Float64() * v.seg.Length()
		v.speed = s.rng.Float64() * v.seg.SpeedLimit
		s.vehicles = append(s.vehicles, v)
	}
	s.vstats = make([]VehicleStats, cfg.NumTaxis)
	return s, nil
}

func (s *Simulator) buildWeights() {
	n := s.cfg.Net.NumNodes()
	s.weights = make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		w := 1.0
		if s.cfg.NodeWeights != nil {
			if ww, ok := s.cfg.NodeWeights[roadnet.NodeID(i)]; ok {
				w = ww
			}
		}
		if w < 0 {
			w = 0
		}
		acc += w
		s.weights[i] = acc
	}
	s.wTotal = acc
}

func (s *Simulator) randomNode() roadnet.NodeID {
	x := s.rng.Float64() * s.wTotal
	lo, hi := 0, len(s.weights)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.weights[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return roadnet.NodeID(lo)
}

// assignNewTrip routes v from the given origin to a fresh weighted-random
// destination, toggling occupancy.
func (s *Simulator) assignNewTrip(v *vehicle, from roadnet.NodeID) {
	for attempt := 0; ; attempt++ {
		dst := s.randomNode()
		if dst == from {
			continue
		}
		r, err := s.cfg.Net.ShortestPath(from, dst, func(sg *roadnet.Segment) float64 { return sg.Length() })
		if err != nil || len(r.Segments) == 0 {
			if attempt > 50 {
				// Pathological network: keep the taxi parked on any
				// outgoing segment so the simulation can proceed.
				out := s.cfg.Net.Node(from).Out
				v.route = []roadnet.SegmentID{out[0]}
				break
			}
			continue
		}
		v.route = r.Segments
		break
	}
	s.enterSegment(v, 0)
	v.dist = 0
	v.phase = phaseDriving
	v.occupied = !v.occupied
	v.dwellAt = -1
	s.maybeArmDwell(v)
}

// enterSegment puts v on route[i] and caches that segment and its queue.
func (s *Simulator) enterSegment(v *vehicle, i int) {
	v.segIdx = i
	v.seg = s.cfg.Net.Segment(v.route[i])
	v.qi = queueIndex(v.seg.To, v.seg.Approach())
}

// maybeArmDwell decides, when v enters the final segment of its route,
// whether the trip ends with a kerbside dwell and where on the block the
// kerb stop happens.
func (s *Simulator) maybeArmDwell(v *vehicle) {
	if v.segIdx != len(v.route)-1 || v.dwellAt >= 0 {
		return
	}
	if s.rng.Float64() >= s.cfg.DwellProb {
		return
	}
	seg := v.seg
	setback := s.cfg.DwellSetbackMin + s.rng.Float64()*(s.cfg.DwellSetbackMax-s.cfg.DwellSetbackMin)
	at := seg.Length() - setback
	if at < 5 {
		at = 5
	}
	if at > seg.Length()-5 {
		at = seg.Length() - 5
	}
	v.dwellAt = at
}

// Now returns the current simulation time (epoch seconds).
func (s *Simulator) Now() float64 { return s.now }

// NumVehicles returns the fleet size.
func (s *Simulator) NumVehicles() int { return len(s.vehicles) }

// Step advances the simulation by one tick.
func (s *Simulator) Step() {
	s.now += Tick
	s.releaseQueues()
	s.spawnBackground()
	for _, v := range s.vehicles {
		s.stepVehicle(v)
	}
}

// spawnBackground injects invisible non-taxi vehicles into signal queues.
// An arrival only materialises when it would actually have to queue (the
// light is red or a queue is still discharging); free-flowing background
// traffic is irrelevant to every observable quantity.
func (s *Simulator) spawnBackground() {
	if s.cfg.BackgroundRate <= 0 {
		return
	}
	p := s.cfg.BackgroundRate * Tick
	for i := range s.queues {
		q := &s.queues[i]
		if q.light == nil || s.bgRng.Float64() >= p {
			continue
		}
		if len(q.vehicles) == 0 && s.colour(i) != lights.Red {
			continue
		}
		v := &vehicle{id: -1, background: true, phase: phaseQueued}
		s.enqueue(i, v)
	}
}

// colour returns what the light of queue i shows at s.now.
func (s *Simulator) colour(i int) lights.State {
	q := &s.queues[i]
	if q.colourAt != s.now {
		q.colour, q.colourAt = q.light.StateFor(lights.Approach(i%2), s.now), s.now
	}
	return q.colour
}

// enqueue puts v at the tail of queue i.
func (s *Simulator) enqueue(i int, v *vehicle) {
	q := &s.queues[i]
	if !q.ordered {
		q.ordered = true
		s.queueOrder = append(s.queueOrder, i)
	}
	v.queueIdx = len(q.vehicles)
	q.vehicles = append(q.vehicles, v)
	q.setback = float64(len(q.vehicles)/s.cfg.Lanes) * s.cfg.CarSpacing
}

// RunUntil steps until the simulation clock reaches t (epoch seconds).
func (s *Simulator) RunUntil(t float64) {
	for s.now < t {
		s.Step()
	}
}

// releaseQueues discharges the head vehicle of every green approach whose
// headway has elapsed.
func (s *Simulator) releaseQueues() {
	for _, qi := range s.queueOrder {
		q := &s.queues[qi]
		if len(q.vehicles) == 0 || s.colour(qi) != lights.Green || s.now-q.lastRelease < s.cfg.Headway {
			continue
		}
		// One headway releases a full rank: Lanes vehicles abreast.
		nRelease := s.cfg.Lanes
		if nRelease > len(q.vehicles) {
			nRelease = len(q.vehicles)
		}
		released := q.vehicles[:nRelease]
		q.vehicles = q.vehicles[nRelease:]
		q.setback = float64(len(q.vehicles)/s.cfg.Lanes) * s.cfg.CarSpacing
		q.lastRelease = s.now
		for i, v := range q.vehicles {
			v.queueIdx = i
		}
		for _, head := range released {
			if head.background {
				continue // vanishes beyond the stop line
			}
			if s.stats != nil {
				s.stats.noteRelease(qi, head.id, s.now)
			}
			s.crossIntersection(head)
		}
	}
}

// crossIntersection moves v past the node at the end of its current
// segment, either onto the next route segment or into trip-end handling.
func (s *Simulator) crossIntersection(v *vehicle) {
	v.phase = phaseDriving
	v.speed = 0 // pulls away from standstill
	if v.segIdx+1 < len(v.route) {
		s.enterSegment(v, v.segIdx+1)
		v.dist = 0
		s.maybeArmDwell(v)
		return
	}
	s.finishTrip(v)
}

// finishTrip handles a vehicle reaching its destination node. Kerbside
// dwells happen mid-block (see maybeArmDwell), so the trip end itself
// rolls straight into the next trip.
func (s *Simulator) finishTrip(v *vehicle) {
	s.vstats[v.id].Trips++
	s.assignNewTrip(v, v.seg.To)
}

// startDwell parks v at the kerb for a random dwell and flips occupancy
// (the passenger leaves or boards at the kerb).
func (s *Simulator) startDwell(v *vehicle) {
	v.phase = phaseDwelling
	v.speed = 0
	v.dwellTill = s.now + s.cfg.DwellMin + s.rng.Float64()*(s.cfg.DwellMax-s.cfg.DwellMin)
	v.occupied = !v.occupied
	v.dwellAt = -1
}

// stepVehicle advances one taxi by a tick; background vehicles exist only
// inside queues and never come here.
func (s *Simulator) stepVehicle(v *vehicle) {
	st := &s.vstats[v.id]
	switch v.phase {
	case phaseDwelling:
		st.DwellTime += Tick
		if s.now >= v.dwellTill {
			// Pull back into traffic and continue to the trip's end node.
			v.phase = phaseDriving
			v.speed = 0
		}
		return
	case phaseQueued:
		st.QueueTime += Tick
		s.creepForward(v)
		return
	}
	st.DriveTime += Tick
	seg := v.seg
	v.speed = minf(seg.SpeedLimit, v.speed+s.cfg.Accel*Tick)

	// A pending kerbside dwell interrupts the drive mid-block.
	if v.dwellAt >= 0 && v.segIdx == len(v.route)-1 && v.dist < v.dwellAt {
		if v.dist+v.speed*Tick >= v.dwellAt {
			v.dist = v.dwellAt
			s.startDwell(v)
			return
		}
	}

	qi := v.qi
	if stopAt, mustStop := s.stopTarget(qi, seg); mustStop {
		remaining := stopAt - v.dist
		if remaining <= 0.5 {
			s.joinQueue(v, qi, seg)
			return
		}
		// Decelerate so that speed² <= 2·decel·remaining.
		vmax := sqrt2ad(s.cfg.Decel, remaining)
		if v.speed > vmax {
			v.speed = maxf(0, v.speed-s.cfg.Decel*Tick)
		}
		v.dist += v.speed * Tick
		st.Distance += v.speed * Tick
		if v.dist >= stopAt {
			v.dist = stopAt
			s.joinQueue(v, qi, seg)
		}
		return
	}
	v.dist += v.speed * Tick
	st.Distance += v.speed * Tick
	if v.dist >= seg.Length() {
		carry := v.dist - seg.Length()
		if v.segIdx+1 < len(v.route) {
			s.enterSegment(v, v.segIdx+1)
			v.dist = carry
			return
		}
		s.finishTrip(v)
	}
}

// stopTarget decides whether a vehicle must stop before the end of seg,
// which feeds queue qi, and where. A stop is required when the node ahead
// is signalised and either shows red for this approach or still has a
// discharging queue.
func (s *Simulator) stopTarget(qi int, seg *roadnet.Segment) (float64, bool) {
	q := &s.queues[qi]
	if q.light == nil {
		return 0, false
	}
	if len(q.vehicles) == 0 && s.colour(qi) != lights.Red {
		return 0, false
	}
	stop := seg.Length() - q.setback
	if stop < 0 {
		stop = 0
	}
	return stop, true
}

// joinQueue stops taxi v at the tail of queue qi, which seg feeds.
func (s *Simulator) joinQueue(v *vehicle, qi int, seg *roadnet.Segment) {
	v.phase = phaseQueued
	v.speed = 0
	s.enqueue(qi, v)
	if s.stats != nil {
		s.stats.noteJoin(qi, v.id, s.now, v.queueIdx+1)
	}
	v.dist = seg.Length() - float64(v.queueIdx/s.cfg.Lanes)*s.cfg.CarSpacing
	if v.dist < 0 {
		v.dist = 0
	}
}

// creepForward advances a queued vehicle toward its (possibly updated)
// hold position after cars ahead have been released.
func (s *Simulator) creepForward(v *vehicle) {
	hold := v.seg.Length() - float64(v.queueIdx/s.cfg.Lanes)*s.cfg.CarSpacing
	if hold < 0 {
		hold = 0
	}
	if v.dist < hold {
		const creepSpeed = 3.0 // m/s, stop-and-go crawl
		v.dist = minf(hold, v.dist+creepSpeed*Tick)
		v.speed = creepSpeed
		if v.dist >= hold {
			v.speed = 0
		}
	} else {
		v.speed = 0
	}
}

// States returns the current public snapshot of every taxi. The slice is
// freshly allocated; callers may keep it.
func (s *Simulator) States() []State {
	out := make([]State, len(s.vehicles))
	for id := range out {
		out[id] = s.StateOf(id)
	}
	return out
}

// StateOf returns the current public snapshot of taxi id. The trace
// generator asks only about the taxis whose report is due this second —
// a few per cent of the fleet — rather than copying every taxi's state
// every simulated second.
func (s *Simulator) StateOf(id int) State {
	v := s.vehicles[id]
	seg := v.seg
	frac := 0.0
	if l := seg.Length(); l > 0 {
		frac = v.dist / l
	}
	return State{
		ID:       v.id,
		Pos:      seg.PointAt(clamp01(frac)),
		SpeedMS:  v.speed,
		Heading:  seg.Heading(),
		Occupied: v.occupied,
		Segment:  seg.ID,
		Stopped:  v.speed == 0,
	}
}

// VehicleStats returns the accumulated statistics of taxi id.
func (s *Simulator) VehicleStats(id int) VehicleStats {
	if id < 0 || id >= len(s.vstats) {
		return VehicleStats{}
	}
	return s.vstats[id]
}

// FleetStats returns the fleet-wide aggregate statistics.
func (s *Simulator) FleetStats() VehicleStats {
	var out VehicleStats
	for _, st := range s.vstats {
		out.Trips += st.Trips
		out.Distance += st.Distance
		out.DriveTime += st.DriveTime
		out.QueueTime += st.QueueTime
		out.DwellTime += st.DwellTime
	}
	return out
}

// QueueLength reports the current queue size at a signal approach, an
// oracle for tests and experiments.
func (s *Simulator) QueueLength(node roadnet.NodeID, a lights.Approach) int {
	if node < 0 || int(node) >= s.cfg.Net.NumNodes() || a < lights.NorthSouth || a > lights.EastWest {
		return 0
	}
	return len(s.queues[queueIndex(node, a)].vehicles)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// sqrt2ad returns sqrt(2·a·d), the maximum speed from which a vehicle can
// stop within distance d at deceleration a.
func sqrt2ad(a, d float64) float64 {
	if d <= 0 {
		return 0
	}
	return math.Sqrt(2 * a * d)
}
