package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// refBucket is the bucketing rule stated the long way round: the first
// bound with v <= bound, else +Inf (index len(bounds)). It is what both
// histograms this package replaced implemented.
func refBucket(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

func TestHistogramBucketEdges(t *testing.T) {
	bounds := []float64{.0005, .001, .0025, 1, 2.5, 60, 16384}
	var inputs []float64
	for _, b := range bounds {
		inputs = append(inputs, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
	}
	inputs = append(inputs, 0, -1, math.Inf(1), math.Inf(-1), math.NaN())
	for _, v := range inputs {
		h := NewHistogram(bounds...)
		h.Observe(v)
		s := h.Snapshot()
		got := len(bounds)
		for i, n := range s.Counts {
			if n == 1 {
				got = i
			}
		}
		if want := refBucket(bounds, v); got != want {
			t.Errorf("Observe(%v) landed in bucket %d, want %d", v, got, want)
		}
		if s.Count != 1 || s.Inf+sum(s.Counts) != 1 {
			t.Errorf("Observe(%v): count %d, buckets %v + inf %d", v, s.Count, s.Counts, s.Inf)
		}
	}
}

func sum(xs []int64) (n int64) {
	for _, x := range xs {
		n += x
	}
	return n
}

func TestHistogramSumAndCount(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 0.25, 1, 3, 4, 1024, 0.125} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Sum != 1032.875 || s.Count != 7 || s.Count != s.Inf+sum(s.Counts) {
		t.Fatalf("snapshot %+v: want sum 1032.875, count 7 = buckets + inf", s)
	}
	none := NewHistogram() // no bounds: everything is +Inf
	none.Observe(3)
	if s := none.Snapshot(); s.Inf != 1 || s.Count != 1 || s.Sum != 3 || len(s.Counts) != 0 {
		t.Fatalf("boundless histogram snapshot %+v", s)
	}
}

func TestConcurrentUpdatesConserveTotals(t *testing.T) {
	const goroutines, each = 8, 10000
	reg := NewRegistry()
	c := reg.Counter("lightd_c_total", "c")
	h := reg.Histogram("lightd_h", "h", []float64{1, 2})
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Add(1)
				h.Observe(float64(j % 4)) // 0,1 | 2 | 3
				g.Set(float64(i))
			}
		}(i)
	}
	wg.Wait()
	s := h.Snapshot()
	if c.Load() != goroutines*each || s.Count != goroutines*each {
		t.Fatalf("counter %d, histogram count %d, want %d", c.Load(), s.Count, goroutines*each)
	}
	if s.Counts[0] != goroutines*each/2 || s.Counts[1] != goroutines*each/4 || s.Inf != goroutines*each/4 {
		t.Fatalf("buckets %v inf %d", s.Counts, s.Inf)
	}
	if s.Sum != goroutines*each/4*(0+1+2+3) {
		t.Fatalf("sum %v", s.Sum)
	}
}

func TestWriteFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lightd_big_total", "Past a million.").Add(1234567)
	reg.Gauge("lightd_frac", "A fraction.", "k", `a"b`).Set(0.25)
	reg.Histogram("lightd_lat_seconds", "Latency.", []float64{.0005, 2.5}, "path", "/x").Observe(.001)
	reg.Declare(KindGauge, "lightd_absent", "Never emitted: no lines.")
	reg.Declare(KindCounter, "lightd_mixed_total", "", L("outcome", "late"))
	reg.Counter("lightd_mixed_total", "Registered and collected.", "outcome", "early")
	reg.Collect(func(sc *Scrape) { sc.Value("lightd_mixed_total", 2, "outcome", "late") })
	var sb strings.Builder
	if err := reg.Write(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lightd_big_total Past a million.
# TYPE lightd_big_total counter
lightd_big_total 1234567
# HELP lightd_frac A fraction.
# TYPE lightd_frac gauge
lightd_frac{k="a\"b"} 0.25
# HELP lightd_lat_seconds Latency.
# TYPE lightd_lat_seconds histogram
lightd_lat_seconds_bucket{path="/x",le="0.0005"} 0
lightd_lat_seconds_bucket{path="/x",le="2.5"} 1
lightd_lat_seconds_bucket{path="/x",le="+Inf"} 1
lightd_lat_seconds_sum{path="/x"} 0.001
lightd_lat_seconds_count{path="/x"} 1
# HELP lightd_mixed_total Registered and collected.
# TYPE lightd_mixed_total counter
lightd_mixed_total{outcome="early"} 0
lightd_mixed_total{outcome="late"} 2
`
	if got := sb.String(); got != want {
		t.Fatalf("page:\n%s\nwant:\n%s", got, want)
	}
}

func TestDoubleRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lightd_x_total", "x", "outcome", "ok")
	reg.Counter("lightd_x_total", "", "outcome", "error") // a second series is fine
	for name, register := range map[string]func(){
		`lightd_x_total{outcome="ok"}`: func() { reg.Counter("lightd_x_total", "", "outcome", "ok") },
		"lightd_x_total":               func() { reg.Gauge("lightd_x_total", "") }, // same name, another TYPE
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, name) {
					t.Errorf("registering %s twice: panic %q does not name it", name, msg)
				}
			}()
			register()
		}()
	}
}
