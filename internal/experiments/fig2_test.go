package experiments

import (
	"math"
	"testing"

	"taxilight/internal/trace"
)

// fig2Records collects horizon seconds of a 4x4 world's trace from 150
// taxis.
func fig2Records(tb testing.TB, horizon float64) []trace.Record {
	tb.Helper()
	cfg := DefaultWorldConfig()
	cfg.Taxis = 150
	cfg.Horizon = horizon
	w, err := BuildWorld(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return w.Records
}

func TestSummarizeFig2Shape(t *testing.T) {
	recs := fig2Records(t, 3600)
	s := summarize(recs, 600)
	if s.total != len(recs) {
		t.Fatalf("total = %d", s.total)
	}
	if len(s.slotCounts) < 5 {
		t.Fatalf("slots = %d", len(s.slotCounts))
	}
	sum := 0
	for _, c := range s.slotCounts {
		sum += c
	}
	if sum != s.total {
		t.Fatalf("slot counts %d != total %d", sum, s.total)
	}
	// Fig. 2(b): mean interval near the mixture mean (~21 s).
	if s.meanInterval < 15 || s.meanInterval > 35 {
		t.Fatalf("mean interval = %v", s.meanInterval)
	}
	// Fig. 2(c): a meaningful share of pairs are stationary.
	if s.stationaryShare < 0.05 || s.stationaryShare > 0.95 {
		t.Fatalf("stationary share = %v", s.stationaryShare)
	}
	if s.meanMovingDistance <= stationaryThresholdMeters {
		t.Fatalf("mean moving distance = %v", s.meanMovingDistance)
	}
	// Fig. 2(d): speed differences roughly zero-mean.
	if math.Abs(s.speedDiffFit.Mu) > 5 {
		t.Fatalf("speed diff mu = %v", s.speedDiffFit.Mu)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := summarize(nil, 600)
	if s.total != 0 || s.slotCounts != nil {
		t.Fatalf("empty summary: %+v", s)
	}
}

func BenchmarkSummarize(b *testing.B) {
	recs := fig2Records(b, 1800)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		summarize(recs, 600)
	}
}
