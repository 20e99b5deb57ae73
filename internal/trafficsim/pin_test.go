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

// pinnedFleet is TestFleetStatePinned's world: 120 taxis on a 5x7 grid
// of 60-160 s cycles, the range its digest was recorded on.
func pinnedFleet(t *testing.T) (*trafficsim.Simulator, *roadnet.Network) {
	t.Helper()
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = 5, 7
	gcfg.CycleMin, gcfg.CycleMax = 60, 160
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
	return sim, net
}

func TestFleetStatePinned(t *testing.T) {
	sim, _ := pinnedFleet(t)
	sim.RunUntil(1800)
	h := sha256.New()
	hashStates(h, sim)
	if got := hex.EncodeToString(h.Sum(nil)); got != fleetStateDigest {
		t.Fatalf("fleet state digest %s, pinned %s", got, fleetStateDigest)
	}
}

// TestObservingDoesNotChangeFleetState reads everything an observer can
// after every tick of TestFleetStatePinned's run, and must end where that
// run ends: the tests that keep a simulator's books by sampling it rely on
// sampling moving nothing.
func TestObservingDoesNotChangeFleetState(t *testing.T) {
	sim, net := pinnedFleet(t)
	for sim.Now() < 1800 {
		sim.Step()
		sim.States()
		for _, nd := range net.Nodes() {
			sim.QueueLength(nd.ID, lights.NorthSouth)
			sim.QueueLength(nd.ID, lights.EastWest)
		}
	}
	h := sha256.New()
	hashStates(h, sim)
	if got := hex.EncodeToString(h.Sum(nil)); got != fleetStateDigest {
		t.Fatalf("fleet state digest %s after observing every tick, pinned %s", got, fleetStateDigest)
	}
}

// hashStates writes every taxi's observable state, floats bit for bit.
func hashStates(h io.Writer, sim *trafficsim.Simulator) {
	for _, st := range sim.States() {
		fmt.Fprintf(h, "%d %d %x %x %x %t %t\n", st.ID, st.Segment, st.Pos.X, st.Pos.Y, st.SpeedMS, st.Occupied, st.Stopped)
	}
}

// streamedWorld is cfg's world from the recipe's streaming constructor:
// nothing is simulated until the caller streams it.
func streamedWorld(t *testing.T, cfg experiments.WorldConfig) *experiments.World {
	t.Helper()
	net, err := roadnet.GenerateGrid(cfg.GridConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := experiments.NewWorld(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// streamDigest hashes the CSV lines w streams up to until, the first
// limit of them when limit > 0, and counts the lines hashed.
func streamDigest(t *testing.T, w *experiments.World, until float64, limit int) (string, int) {
	t.Helper()
	h := sha256.New()
	var buf []byte
	n := 0
	if err := w.Gen.Stream(until, func(r trace.Record) error {
		if limit > 0 && n == limit {
			return nil
		}
		buf = append(r.AppendCSV(buf[:0]), '\n')
		h.Write(buf)
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

func TestWorldTracePinned(t *testing.T) {
	cfg := experiments.DefaultWorldConfig()
	const lines = 50000
	got, n := streamDigest(t, streamedWorld(t, cfg), cfg.Horizon, lines)
	if n < lines {
		t.Fatalf("world trace has %d records, want >= %d", n, lines)
	}
	if got != worldTraceDigest {
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
// byte, and every ledger row measured on those tapes moved with it. The
// test renders them through experiments.NewWorld, not bench/tape.go's own
// copy of the recipe, so the recipe is held to the tapes byte for byte.
//
// The first 900 s cannot tell a dynamic light from a static one: a
// dynamic light runs its off-peak plan until 07:00. So plans pins each
// world's light plans as planDigest hashes them, recorded once at the
// commit that added it; a world built without its dynamic share moves it.
var benchTapeDigests = []struct {
	name    string
	rows    int
	spacing float64
	taxis   int
	seed    int64
	digest  string
	plans   string
}{
	{"city/seed1", 8, 800, 800, 1, "31bd9addd54d0ff6f34e9c18b4ed2e39118ce87e3a34f1bc688611852efd6fd5", "0e8d8ac31225274b396e76580fed8c44695d2e9ce76a732b99571e10a11aaed7"},
	{"city/seed7", 8, 800, 800, 7, "8479c9e3879f1bb7513d17f2e70ab667c323d53ec7ceaee33506574a717ec3b8", "257f0ed908e989872544874cf3781c28d91545dd3420c749b4cc05d767368269"},
	{"arterial/seed1", 3, 6000, 2000, 1, "ca6ba1bf48f86ae291d52d03b234fe46a00244cff205f2f1e3780aee2ab5862e", "7d7a5f042ba7b7f6b99c011541b96b59a1fd5f6f583d6916b9d5997d4d8159cc"},
	{"arterial/seed7", 3, 6000, 2000, 7, "f9124c6202101d47ed54efd5ae4b8b21721facdab5bfe292a2fb1597989c3fb2", "e003ab1cfac5f1061b120d36e9e1e3e55cee7542f48d63a9d2aec90a6c465e31"},
}

// planDigest hashes which of net's lights are dynamic and every plan each
// light runs: a static light's one schedule, a dynamic light's plan table.
func planDigest(t *testing.T, net *roadnet.Network) string {
	t.Helper()
	h := sha256.New()
	for _, nd := range net.SignalisedNodes() {
		switch c := nd.Light.Ctrl.(type) {
		case lights.Static:
			fmt.Fprintf(h, "static %d %+v\n", nd.ID, c.S)
		case *lights.Dynamic:
			fmt.Fprintf(h, "dynamic %d %+v\n", nd.ID, c.Plan)
		default:
			t.Fatalf("light %d: controller %T", nd.ID, c)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestBenchTapesPinned(t *testing.T) {
	for _, tc := range benchTapeDigests {
		t.Run(tc.name, func(t *testing.T) {
			w := streamedWorld(t, experiments.WorldConfig{
				Rows: tc.rows, Cols: tc.rows,
				Taxis:        tc.taxis,
				Seed:         tc.seed,
				DynamicShare: roadnet.DefaultGridConfig().DynamicShare,
				GridOverride: func(g *roadnet.GridConfig) { g.Spacing = tc.spacing },
			})
			if got := planDigest(t, w.Net); got != tc.plans {
				t.Errorf("plan digest %s, pinned %s", got, tc.plans)
			}
			got, _ := streamDigest(t, w, 900, 0)
			if got != tc.digest {
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
	gcfg.CycleMin, gcfg.CycleMax = 60, 160
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
	gcfg.CycleMin, gcfg.CycleMax = 60, 160
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
