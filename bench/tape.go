package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"

	"taxilight/internal/experiments"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/server"
	"taxilight/internal/trace"
	"taxilight/internal/trafficsim"
)

// tapeSpec describes one simulated feed. Two specs exist because the two
// halves of the ingest path dominate on different feeds: a dense downtown
// where most reports are near a stop line keeps the estimation rounds
// busy, a sparse arterial grid where most are not keeps the scanner and
// the map-matcher busy.
type tapeSpec struct {
	Name    string
	Rows    int     // Rows x Rows signalised grid
	Spacing float64 // block edge, metres
	Taxis   int
	Horizon float64 // stream seconds rendered
}

var (
	cityTape     = tapeSpec{Name: "city", Rows: 8, Spacing: 800, Taxis: 800, Horizon: 7200}
	arterialTape = tapeSpec{Name: "arterial", Rows: 3, Spacing: 6000, Taxis: 2000, Horizon: 7200}
)

// Accuracy thresholds of EXPERIMENTS.md Fig. 13/14.
const (
	cycleTolerance = 5.0
	redTolerance   = 6.0
)

// tape is a rendered feed on disk plus what the harness needs to pace it
// and to judge the program's answers: where every line starts, when it
// happened in stream time, how many lines the harness's own matcher
// attributed to an approach, and the network that holds the true
// schedules. The program only ever receives the file's bytes.
type tape struct {
	Spec    tapeSpec
	Path    string
	Net     *roadnet.Network
	Matcher *mapmatch.Matcher
	Keys    []mapmatch.Key   // every approach of every light
	Nodes   []roadnet.NodeID // every signalised node
	Off     []int64          // Off[i] is where line i starts; Off[len(T)] is the file size
	T       []float64        // stream second of line i, non-decreasing
	// MatchedCum[i] counts the lines before i the matcher accepted.
	MatchedCum []int32
}

func (tp *tape) records() int { return len(tp.T) }

// buildTape simulates spec's city from seed and streams the Table-I CSV
// straight to path (diurnal profile off, so every due report is emitted).
func buildTape(spec tapeSpec, seed int64, path string) (*tape, error) {
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = spec.Rows, spec.Rows
	gcfg.Spacing = spec.Spacing
	gcfg.Seed = seed
	gcfg.CycleMin, gcfg.CycleMax = 80, 140 // as lightd and the experiments build their grids
	net, err := roadnet.GenerateGrid(gcfg)
	if err != nil {
		return nil, fmt.Errorf("tape %s: grid: %w", spec.Name, err)
	}
	scfg := trafficsim.DefaultConfig(net)
	scfg.NumTaxis = spec.Taxis
	scfg.Seed = seed
	sim, err := trafficsim.New(scfg)
	if err != nil {
		return nil, fmt.Errorf("tape %s: sim: %w", spec.Name, err)
	}
	tcfg := trace.DefaultGenConfig(sim, net.Projection())
	tcfg.Seed = seed
	tcfg.Epoch = experiments.Epoch
	tcfg.Activity = nil
	gen, err := trace.NewGenerator(tcfg)
	if err != nil {
		return nil, fmt.Errorf("tape %s: generator: %w", spec.Name, err)
	}
	matcher, err := mapmatch.New(net, experiments.Epoch, mapmatch.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("tape %s: matcher: %w", spec.Name, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the success path checks Close below
	w := bufio.NewWriterSize(f, 1<<20)
	tp := &tape{Spec: spec, Path: path, Net: net, Matcher: matcher, Off: []int64{0}, MatchedCum: []int32{0}}
	var off int64
	var matched int32
	var onTape trace.Record
	err = gen.Stream(spec.Horizon, func(r trace.Record) error {
		line := r.MarshalCSV()
		// The matcher is asked about the record as the tape carries it —
		// coordinates, speed and heading rounded by the CSV — because that
		// is the record the program will see.
		if err := onTape.UnmarshalCSV(line); err != nil {
			return err
		}
		if _, err := w.WriteString(line); err != nil {
			return err
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
		off += int64(len(line)) + 1
		if _, ok := matcher.Match(onTape); ok {
			matched++
		}
		tp.Off = append(tp.Off, off)
		tp.T = append(tp.T, onTape.Time.Sub(experiments.Epoch).Seconds())
		tp.MatchedCum = append(tp.MatchedCum, matched)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tape %s: %w", spec.Name, err)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if tp.records() == 0 {
		return nil, fmt.Errorf("tape %s: no records", spec.Name)
	}
	for _, n := range net.SignalisedNodes() {
		tp.Nodes = append(tp.Nodes, n.ID)
		tp.Keys = append(tp.Keys,
			mapmatch.Key{Light: n.ID, Approach: lights.NorthSouth},
			mapmatch.Key{Light: n.ID, Approach: lights.EastWest})
	}
	return tp, nil
}

// limit is the number of leading lines whose stream time lies within span
// seconds of the first line's; span <= 0 means the whole tape.
func (tp *tape) limit(span float64) int {
	if span <= 0 {
		return tp.records()
	}
	end := tp.T[0] + span
	return sort.Search(tp.records(), func(i int) bool { return tp.T[i] > end })
}

// trigger is the first line whose stream time is at least ts: the record
// whose arrival makes the estimation round at ts due. It returns
// records() when no line is that late.
func (tp *tape) trigger(ts float64) int {
	return sort.Search(tp.records(), func(i int) bool { return tp.T[i] >= ts })
}

// approachKey is the partition key a snapshot entry stands for.
func approachKey(a server.SnapshotApproach) mapmatch.Key {
	ap := lights.NorthSouth
	if a.Approach == lights.EastWest.String() {
		ap = lights.EastWest
	}
	return mapmatch.Key{Light: roadnet.NodeID(a.Light), Approach: ap}
}

// accuracy is the final snapshot judged against the simulated lights.
type accuracy struct {
	Total, Served, CycleOK, RedOK int
}

func (a accuracy) fracs() (served, cycle, red float64) {
	t := float64(a.Total)
	return float64(a.Served) / t, float64(a.CycleOK) / t, float64(a.RedOK) / t
}

// score compares every approach's served estimate with the schedule its
// light really ran at the estimate's window end. An approach without an
// estimate counts as a miss on all three.
func (tp *tape) score(doc server.SnapshotDoc) accuracy {
	est := make(map[mapmatch.Key]server.SnapshotApproach, len(doc.Approaches))
	for _, a := range doc.Approaches {
		est[approachKey(a)] = a
	}
	acc := accuracy{Total: len(tp.Keys)}
	for _, k := range tp.Keys {
		a, ok := est[k]
		if !ok {
			continue
		}
		acc.Served++
		truth := tp.Net.Node(k.Light).Light.ScheduleFor(k.Approach, a.WindowEnd)
		if math.Abs(a.Cycle-truth.Cycle) <= cycleTolerance {
			acc.CycleOK++
		}
		if math.Abs(a.Red-truth.Red) <= redTolerance {
			acc.RedOK++
		}
	}
	return acc
}
