package trafficsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"taxilight/internal/experiments"
	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
	"taxilight/internal/trafficsim"
)

// The two digests below were recorded at the commit before the road
// network's searches were folded into one (while ShortestPath was still
// its own container/heap Dijkstra). Every trip the simulator assigns is
// routed by ShortestPath over segment lengths, where a grid offers many
// equal-cost routes, so any change in how ties pop moves vehicles onto
// other streets and changes every trace the repository generates — the
// bench tapes included. A mismatch here means routing changed, not that
// the digests need refreshing.
const (
	fleetStateDigest = "8e177a2ddcd343bf3272fd2d1e4256c4f69661510753f1d20748a50c943d49e7"
	worldTraceDigest = "5d9b5108fadcaa7def97367656e7be6d65aca62ae56784515ba821bed165a32b"
)

func TestFleetStatePinned(t *testing.T) {
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = 5, 7
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trafficsim.DefaultConfig(net)
	cfg.NumTaxis = 120
	cfg.Seed = 16
	sim, err := trafficsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(1800)
	h := sha256.New()
	hashStates(h, sim)
	if got := hex.EncodeToString(h.Sum(nil)); got != fleetStateDigest {
		t.Fatalf("fleet state digest %s, pinned %s", got, fleetStateDigest)
	}
}

// hashStates writes every taxi's observable state, floats bit for bit.
func hashStates(h io.Writer, sim *trafficsim.Simulator) {
	for _, st := range sim.States() {
		fmt.Fprintf(h, "%d %d %x %x %x %t %t\n", st.ID, st.Segment, st.Pos.X, st.Pos.Y, st.SpeedMS, st.Occupied, st.Stopped)
	}
}

func TestWorldTracePinned(t *testing.T) {
	w, err := experiments.BuildWorld(experiments.DefaultWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	const lines = 50000
	if len(w.Records) < lines {
		t.Fatalf("world trace has %d records, want >= %d", len(w.Records), lines)
	}
	h := sha256.New()
	var buf []byte
	for _, r := range w.Records[:lines] {
		buf = append(r.AppendCSV(buf[:0]), '\n')
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != worldTraceDigest {
		t.Fatalf("world trace digest %s, pinned %s", got, worldTraceDigest)
	}
}

// benchTapeDigests pins the first 900 stream-seconds of the two feeds the
// perf ledger renders (bench/tape.go: an 8x8 grid of 800 m blocks with
// 800 taxis, a 3x3 grid of 6 km blocks with 2000, cycles 80-140 s, the
// diurnal profile off), at two seeds each. They were recorded at the
// commit before trace.Generator.Stream became a two-stage pipeline and
// the CSV renderer stopped going through strconv's and time's general
// formatters, by a change that claims every tape byte stays where it was:
// a mismatch means the generator, the simulator or the renderer moved a
// byte, and every ledger row measured on those tapes moved with it.
var benchTapeDigests = []struct {
	name    string
	rows    int
	spacing float64
	taxis   int
	seed    int64
	digest  string
}{
	{"city/seed1", 8, 800, 800, 1, "31bd9addd54d0ff6f34e9c18b4ed2e39118ce87e3a34f1bc688611852efd6fd5"},
	{"city/seed7", 8, 800, 800, 7, "8479c9e3879f1bb7513d17f2e70ab667c323d53ec7ceaee33506574a717ec3b8"},
	{"arterial/seed1", 3, 6000, 2000, 1, "ca6ba1bf48f86ae291d52d03b234fe46a00244cff205f2f1e3780aee2ab5862e"},
	{"arterial/seed7", 3, 6000, 2000, 7, "f9124c6202101d47ed54efd5ae4b8b21721facdab5bfe292a2fb1597989c3fb2"},
}

func TestBenchTapesPinned(t *testing.T) {
	for _, tc := range benchTapeDigests {
		t.Run(tc.name, func(t *testing.T) {
			gcfg := roadnet.DefaultGridConfig()
			gcfg.Rows, gcfg.Cols = tc.rows, tc.rows
			gcfg.Spacing = tc.spacing
			gcfg.Seed = tc.seed
			gcfg.CycleMin, gcfg.CycleMax = 80, 140
			net, err := roadnet.GenerateGrid(gcfg)
			if err != nil {
				t.Fatal(err)
			}
			scfg := trafficsim.DefaultConfig(net)
			scfg.NumTaxis = tc.taxis
			scfg.Seed = tc.seed
			sim, err := trafficsim.New(scfg)
			if err != nil {
				t.Fatal(err)
			}
			tcfg := trace.DefaultGenConfig(sim, net.Projection())
			tcfg.Seed = tc.seed
			tcfg.Epoch = experiments.Epoch
			tcfg.Activity = nil
			gen, err := trace.NewGenerator(tcfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf []byte
			if err := gen.Stream(900, func(r trace.Record) error {
				buf = append(r.AppendCSV(buf[:0]), '\n')
				h.Write(buf)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Fatalf("tape digest %s, pinned %s", got, tc.digest)
			}
		})
	}
}

// The two digests below were recorded at the commit before signal queues
// moved from a map keyed by (node, approach) into a dense per-approach
// table and a light's colour became one evaluation per tick shared by
// every reader, by a change that claims no vehicle moves. Each hashes
// every taxi's state and every approach's QueueLength at three instants.
const (
	backgroundFleetDigest = "c7a5738f8af721af651980820747140cd0708d640b2eccf2d357b7ac2e84c92e"
	planChangeFleetDigest = "e5200207a1b55bcfdaf839da91befadecdad1fde0fcea5769b2dd3d8cb1175c4"
)

// fleetAndQueueDigest runs sim to each instant in turn and hashes what an
// observer can see there: every taxi's state and every approach's queue.
func fleetAndQueueDigest(sim *trafficsim.Simulator, net *roadnet.Network, instants ...float64) string {
	h := sha256.New()
	for _, at := range instants {
		sim.RunUntil(at)
		hashStates(h, sim)
		for _, nd := range net.Nodes() {
			fmt.Fprintf(h, "q %d %d %d\n", nd.ID, sim.QueueLength(nd.ID, lights.NorthSouth), sim.QueueLength(nd.ID, lights.EastWest))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFleetStateWithBackgroundPinned enters the branch TestFleetStatePinned
// does not: background vehicles share the taxis' queues, draw from bgRng
// once per approach per tick in approach order, and materialise only
// against the colour the taxis see.
func TestFleetStateWithBackgroundPinned(t *testing.T) {
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = 5, 7
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trafficsim.DefaultConfig(net)
	cfg.NumTaxis = 120
	cfg.Seed = 16
	cfg.BackgroundRate = 0.15
	sim, err := trafficsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetAndQueueDigest(sim, net, 600, 1200, 1800); got != backgroundFleetDigest {
		t.Fatalf("fleet and queue digest %s, pinned %s", got, backgroundFleetDigest)
	}
}

// TestFleetStateAcrossPlanChangePinned gives every light a plan table that
// switches schedule three times inside the run, each light at its own
// instants: a colour or a schedule remembered from an earlier tick shows a
// vehicle the wrong light at a switch and moves the digest.
func TestFleetStateAcrossPlanChangePinned(t *testing.T) {
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = 4, 5
	gcfg.DynamicShare = 0
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range net.SignalisedNodes() {
		a := nd.Light.Ctrl.ScheduleAt(0)
		b := lights.Schedule{Cycle: float64(int(a.Cycle * 1.5)), Red: float64(int(a.Red * 1.5)), Offset: a.Offset + 13}
		dyn, err := lights.NewDynamic([]lights.PlanEntry{
			{DaySecond: 0, S: a},
			{DaySecond: float64(300 + 7*i), S: b},
			{DaySecond: float64(900 + 11*i), S: a},
			{DaySecond: float64(1500 - 5*i), S: b},
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.Light.Ctrl = dyn
	}
	cfg := trafficsim.DefaultConfig(net)
	cfg.NumTaxis = 150
	cfg.Seed = 23
	cfg.BackgroundRate = 0.05
	sim, err := trafficsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetAndQueueDigest(sim, net, 450, 1000, 1800); got != planChangeFleetDigest {
		t.Fatalf("fleet and queue digest %s, pinned %s", got, planChangeFleetDigest)
	}
}
