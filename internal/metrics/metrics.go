// Package metrics is lightd's one implementation of the Prometheus text
// exposition format (the repo is stdlib-only): three instruments built on
// atomics, a registry that names each family once with its HELP and TYPE,
// a scrape-time callback for values that live elsewhere, and one Write.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Add(n int64) { c.v.Add(n) }
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable float64 metric (stored as IEEE-754 bits).
type Gauge struct{ bits atomic.Uint64 }

func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket Prometheus histogram: an observation goes to
// the first bucket whose upper bound is >= v, or to +Inf (NaN included).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // one per bound and a last one for +Inf, non-cumulative
	sumBits atomic.Uint64  // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

func (h *Histogram) Observe(v float64) {
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts, the +Inf overflow, and the sum and count of
// all observations.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Inf    int64
	Sum    float64
	Count  int64
}

func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.buckets)), Sum: math.Float64frombits(h.sumBits.Load())}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
		s.Count += s.Counts[i]
	}
	s.Inf, s.Counts = s.Counts[len(h.bounds)], s.Counts[:len(h.bounds)]
	return s
}

// Kind is a family's TYPE.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label declares one label of a family and the values it takes; no
// values means an open set (a source name).
type Label struct {
	Name   string
	Values []string
}

func L(name string, values ...string) Label { return Label{Name: name, Values: values} }

// Family describes one metric family, for the lint and the README table:
// Labels merges what Declare stated with the constant labels of the
// family's registered instruments.
type Family struct {
	Name, Help string
	Kind       Kind
	Labels     []Label
}

type family struct {
	Family
	id     int
	series []series
}

type series struct {
	labels []byte // rendered `k="v",...`
	value  func() float64
	hist   *Histogram
}

// Registry holds one server's families in registration order. There is no
// process-wide registry: tests and the bench boot many servers at once.
// Registration is start-up work and is not synchronised: every family and
// series is added before the first Write.
type Registry struct {
	families   []*family
	byName     map[string]*family
	collectors []func(*Scrape)
}

func NewRegistry() *Registry { return &Registry{byName: make(map[string]*family)} }

// family finds or creates name. A family's HELP comes from whichever
// registration states it; the others pass the same text or none.
func (r *Registry) family(name, help string, kind Kind) *family {
	f := r.byName[name]
	if f == nil {
		f = &family{Family: Family{Name: name, Kind: kind}, id: len(r.families)}
		r.families = append(r.families, f)
		r.byName[name] = f
	}
	if f.Kind != kind || (help != "" && f.Help != "" && help != f.Help) {
		panic(fmt.Sprintf("metrics: %s registered as %s %q and as %s %q", name, f.Kind, f.Help, kind, help))
	}
	if help != "" {
		f.Help = help
	}
	return f
}

// declare merges one label's values into the family's declaration (a
// copy: callers hand in slices of their own argument lists).
func (f *family) declare(name string, values ...string) {
	for i := range f.Labels {
		if f.Labels[i].Name == name {
			f.Labels[i].Values = append(f.Labels[i].Values, values...)
			return
		}
	}
	f.Labels = append(f.Labels, Label{Name: name, Values: append([]string(nil), values...)})
}

// register adds one instrument under name and constant label pairs
// ("k1", "v1", "k2", "v2", ...); the same sample key twice is a bug.
func (r *Registry) register(name, help string, kind Kind, s series, pairs []string) {
	f := r.family(name, help, kind)
	s.labels = appendLabels(nil, pairs)
	for _, old := range f.series {
		if string(old.labels) == string(s.labels) {
			panic(fmt.Sprintf("metrics: duplicate registration of %s{%s}", name, s.labels))
		}
	}
	f.series = append(f.series, s)
	for i := 0; i < len(pairs); i += 2 {
		f.declare(pairs[i], pairs[i+1])
	}
}

func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := new(Counter)
	r.register(name, help, KindCounter, series{value: func() float64 { return float64(c.Load()) }}, labels)
	return c
}

func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := new(Gauge)
	r.register(name, help, KindGauge, series{value: g.Load}, labels)
	return g
}

func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	h := NewHistogram(bounds...)
	r.register(name, help, KindHistogram, series{hist: h}, labels)
	return h
}

// Declare names a family whose samples a collector emits at scrape time,
// with the labels they carry. The family may also hold registered
// instruments.
func (r *Registry) Declare(kind Kind, name, help string, labels ...Label) {
	f := r.family(name, help, kind)
	for _, l := range labels {
		f.declare(l.Name, l.Values...)
	}
}

// Collect adds fn to the functions every Write calls first — the one way
// to expose a value that lives outside the registry.
func (r *Registry) Collect(fn func(*Scrape)) { r.collectors = append(r.collectors, fn) }

// Scrape receives the collectors' samples during one Write.
type Scrape struct {
	r      *Registry
	out    [][]byte // rendered samples by family id
	labels []byte   // scratch
}

// family finds a declared family's buffer and renders the label pairs.
func (s *Scrape) family(name string, pairs []string) *[]byte {
	f := s.r.byName[name]
	if f == nil {
		panic("metrics: collector emitted undeclared family " + name)
	}
	s.labels = appendLabels(s.labels[:0], pairs)
	return &s.out[f.id]
}

// Value emits one counter or gauge sample with label pairs.
func (s *Scrape) Value(name string, v float64, labels ...string) {
	out := s.family(name, labels)
	*out = appendSample(*out, name, "", s.labels, nil, v)
}

// Histogram emits one histogram series with label pairs.
func (s *Scrape) Histogram(name string, h HistogramSnapshot, labels ...string) {
	out := s.family(name, labels)
	*out = h.appendTo(*out, name, s.labels)
}

// Write renders every family that has samples — HELP, TYPE, registered
// series, then collected ones — into a buffer and hands w the finished
// body in one call: nothing of the registry's or of a collector's is held
// while a slow client reads.
func (r *Registry) Write(w io.Writer) error {
	sc := Scrape{r: r, out: make([][]byte, len(r.families))}
	for _, fn := range r.collectors {
		fn(&sc)
	}
	var b []byte
	for _, f := range r.families {
		if len(f.series) == 0 && len(sc.out[f.id]) == 0 {
			continue
		}
		b = append(b, "# HELP "+f.Name+" "+f.Help+"\n# TYPE "+f.Name+" "+string(f.Kind)+"\n"...)
		for _, s := range f.series {
			if s.hist != nil {
				b = s.hist.Snapshot().appendTo(b, f.Name, s.labels)
			} else {
				b = appendSample(b, f.Name, "", s.labels, nil, s.value())
			}
		}
		b = append(b, sc.out[f.id]...)
	}
	_, err := w.Write(b)
	return err
}

// appendTo renders the cumulative _bucket lines, _sum and _count.
func (h HistogramSnapshot) appendTo(b []byte, name string, labels []byte) []byte {
	var le [24]byte
	cum := int64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		b = appendSample(b, name, "_bucket", labels, strconv.AppendFloat(le[:0], bound, 'g', -1, 64), float64(cum))
	}
	b = appendSample(b, name, "_bucket", labels, []byte("+Inf"), float64(cum+h.Inf))
	b = appendSample(b, name, "_sum", labels, nil, h.Sum)
	return appendSample(b, name, "_count", labels, nil, float64(h.Count))
}

func appendLabels(b []byte, pairs []string) []byte {
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, pairs[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, pairs[i+1])
	}
	return b
}

// appendSample writes one line: name+suffix, the labels (and a histogram
// bucket's le) in braces, the value. Whole numbers print as integers, so a
// counter past a million does not read 1.234567e+06; everything else
// prints as %g does.
func appendSample(b []byte, name, suffix string, labels, le []byte, v float64) []byte {
	b = append(append(b, name...), suffix...)
	if len(labels) > 0 || le != nil {
		b = append(append(b, '{'), labels...)
		if le != nil {
			if len(labels) > 0 {
				b = append(b, ',')
			}
			b = append(append(append(b, `le="`...), le...), '"')
		}
		b = append(b, '}')
	}
	b = append(b, ' ')
	if v == math.Trunc(v) && math.Abs(v) < 1<<63 {
		b = strconv.AppendInt(b, int64(v), 10)
	} else {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}
