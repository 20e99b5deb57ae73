package trafficsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"taxilight/internal/experiments"
	"taxilight/internal/roadnet"
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
	for _, st := range sim.States() {
		fmt.Fprintf(h, "%d %d %x %x %x %t %t\n", st.ID, st.Segment, st.Pos.X, st.Pos.Y, st.SpeedMS, st.Occupied, st.Stopped)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fleetStateDigest {
		t.Fatalf("fleet state digest %s, pinned %s", got, fleetStateDigest)
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
