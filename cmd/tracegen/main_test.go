package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taxilight/internal/experiments"
	"taxilight/internal/faults"
	"taxilight/internal/trace"
)

// Districts render side by side, but every file must hold what a render
// of that district alone holds, and the status lines must read as they
// did when districts were rendered one after another.
func TestMegacityFilesDoNotDependOnRenderOrder(t *testing.T) {
	mcfg := experiments.MegacityConfig{Districts: 5, Rows: 3, Cols: 3, TaxisPerDistrict: 40, Seed: 3}
	const horizon = 400
	out := filepath.Join(t.TempDir(), "mc.csv")
	var status bytes.Buffer
	if err := runMegacity(mcfg, horizon, out, "", "", &status); err != nil {
		t.Fatal(err)
	}

	alone, err := experiments.BuildMegacity(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantStatus strings.Builder
	total := 0
	for _, d := range alone.Districts {
		var want []byte
		n := 0
		if err := d.StreamRecords(horizon, func(r trace.Record) error {
			want = append(r.AppendCSV(want), '\n')
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		path := districtPath(out, d.Index)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || !bytes.Equal(got, want) {
			t.Fatalf("district %d: file has %d bytes, a render of it alone %d (%d records)", d.Index, len(got), len(want), n)
		}
		fmt.Fprintf(&wantStatus, "wrote %d records to %s\n", n, path)
		total += n
	}
	fmt.Fprintf(&wantStatus, "megacity: 5 districts, %d lights, %d records across 5 trace files\n", alone.Lights, total)
	if status.String() != wantStatus.String() {
		t.Fatalf("status output:\n%s\nwant:\n%s", status.String(), wantStatus.String())
	}
}

// The paced writer renders through one reused line buffer; what reaches
// the wire is still one MarshalCSV line per record.
func TestStreamRecordsWritesMarshalledLines(t *testing.T) {
	cfg := experiments.DefaultWorldConfig()
	cfg.Taxis, cfg.Horizon, cfg.Rows, cfg.Cols = 30, 120, 3, 3
	world, err := experiments.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(world.Records) == 0 {
		t.Fatal("no records")
	}
	for _, corruptProb := range []float64{0, 0.3} {
		pipeline := func() *faults.Pipeline {
			if corruptProb == 0 {
				return nil
			}
			p, err := faults.New(faults.Config{Seed: 9, CorruptProb: corruptProb})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		var want strings.Builder
		ref := pipeline()
		for _, r := range world.Records {
			line := r.MarshalCSV()
			if ref != nil {
				line, _ = ref.CorruptLine(line)
			}
			want.WriteString(line + "\n")
		}
		var got bytes.Buffer
		if err := streamRecords(&got, world.Records, pipeline(), 1e9); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("corruption %v: streamed %d bytes, want %d", corruptProb, got.Len(), want.Len())
		}
	}
}
