package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric of the ledger. The two tables below are the
// single source of the names, units, directions and bounds; BENCHMARK.json
// at the repository root repeats them and bench_test.go checks the two
// agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd is what the driver holds later changes to. Every workload
// reports every row. Only rows that are counts are here: on the hosts this
// runs on, nothing measured in seconds repeats to within the contract's
// widest bound (README.md, Steadiness), and a bound a metric cannot keep
// is a coin flip, not a gate. The timings a user of lightd sees are in
// reportedOnly.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_record", Unit: "allocs/record", Better: "lower", Bound: 0.08},
	{Name: "alloc_bytes_per_record", Unit: "bytes/record", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "served_frac", Unit: "fraction", Better: "higher", Bound: 0.1},
	{Name: "cycle_ok_frac", Unit: "fraction", Better: "higher", Bound: 0.2},
	{Name: "ok_ops_frac", Unit: "fraction", Better: "higher", Bound: 0.001},
}

// reportedOnly is printed by every run beside the end-to-end table, is
// compared by -agree, and is held to no bound by the driver: the timings,
// which spread 10 to 50 % of their median between runs on this class of
// host, and the share of approaches whose red is identified within 6 s,
// which is a few dozen coin flips near one in four. The traced run carries
// them into its result line as the "lightd." rows of the per-layer list.
var reportedOnly = []metricDef{
	{Name: "records_per_s", Unit: "records/s", Better: "higher"},
	{Name: "records_per_cpu_s", Unit: "records/cpu-s", Better: "higher"},
	{Name: "fresh_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fresh_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "read_p50_us", Unit: "us", Better: "lower"},
	{Name: "route_p50_us", Unit: "us", Better: "lower"},
	{Name: "red_ok_frac", Unit: "fraction", Better: "higher"},
}

// plainRows is everything an untraced run measures: the bounded rows and
// the reported-only ones.
func plainRows() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), reportedOnly...)
}

// perLayer is the traced run's table; layers are this repository's
// packages. README.md records which end-to-end row each one should move.
var perLayer = []metricDef{
	{Name: "lightd.records_per_s", Unit: "records/s", Better: "higher"},
	{Name: "lightd.records_per_cpu_s", Unit: "records/cpu-s", Better: "higher"},
	{Name: "lightd.fresh_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "lightd.fresh_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "lightd.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "lightd.route_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.scan_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "trace.scan_allocs_per_record", Unit: "allocs/record", Better: "lower"},
	{Name: "trace.scan_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.skipped_lines", Unit: "count", Better: "lower"},
	{Name: "mapmatch.match_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "mapmatch.match_allocs_per_record", Unit: "allocs/record", Better: "lower"},
	{Name: "mapmatch.matched_frac", Unit: "fraction", Better: "higher"},
	{Name: "ingest.admitted", Unit: "count", Better: "higher"},
	{Name: "ingest.dedup_dropped", Unit: "count", Better: "lower"},
	{Name: "ingest.connects", Unit: "count", Better: "lower"},
	{Name: "server.dispatch_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "server.dispatch_blocked_s", Unit: "s", Better: "lower"},
	{Name: "server.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "server.arrival_to_round_end_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ingest_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "core.buffered_records", Unit: "count", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.keys_recomputed", Unit: "count", Better: "lower"},
	{Name: "core.keys_carried", Unit: "count", Better: "higher"},
	{Name: "core.round_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.round_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.round_ms_per_key", Unit: "ms", Better: "lower"},
	{Name: "core.round_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.round_workers_max", Unit: "count", Better: "higher"},
	{Name: "core.failed_keys", Unit: "count", Better: "lower"},
	{Name: "core.red_ok_frac", Unit: "fraction", Better: "higher"},
	{Name: "core.lock_hold_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.lock_hold_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.stopindex_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "core.cycle_us_per_key", Unit: "us", Better: "lower"},
	{Name: "core.red_us_per_key", Unit: "us", Better: "lower"},
	{Name: "core.change_us_per_key", Unit: "us", Better: "lower"},
	{Name: "dsp.resample_us_per_window", Unit: "us", Better: "lower"},
	{Name: "dsp.fft_us_per_window", Unit: "us", Better: "lower"},
	{Name: "dsp.plan_cache_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "pubsub.events_published", Unit: "count", Better: "higher"},
	{Name: "pubsub.events_received", Unit: "count", Better: "higher"},
	{Name: "pubsub.evictions", Unit: "count", Better: "lower"},
	{Name: "pubsub.publish_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "pubsub.round_end_to_client_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pubsub.round_end_to_client_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "store.appended_records", Unit: "count", Better: "higher"},
	{Name: "store.append_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "store.fsyncs", Unit: "count", Better: "lower"},
	{Name: "store.wal_bytes", Unit: "bytes", Better: "lower"},
	{Name: "store.dropped_records", Unit: "count", Better: "lower"},
	{Name: "store.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "server.state_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "server.state_allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "server.snapshot_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "server.snapshot_rebuild_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "server.healthz_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "server.metrics_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "routesvc.plan_us_p50", Unit: "us", Better: "lower"},
	{Name: "routesvc.expanded_nodes_per_plan", Unit: "count", Better: "lower"},
	{Name: "routesvc.cache_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "routesvc.degraded_frac", Unit: "fraction", Better: "lower"},
	{Name: "client.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.route_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.reads_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "fraction", Better: "lower"},
	{Name: "proc.alloc_bytes_per_record", Unit: "bytes/record", Better: "lower"},
	{Name: "proc.glue_cpu_s", Unit: "s", Better: "lower"},
	{Name: "staged.records_per_s", Unit: "records/s", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints as its last
// line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// values maps metric name to measured value; notes carries what a timing
// must be read with (sample count, percentile actually reported).
type values struct {
	v     map[string]float64
	notes map[string]string
}

func newValues() *values {
	return &values{v: map[string]float64{}, notes: map[string]string{}}
}

func (vs *values) set(name string, v float64) { vs.v[name] = v }

func (vs *values) setNote(name string, v float64, format string, args ...any) {
	vs.v[name] = v
	vs.notes[name] = fmt.Sprintf(format, args...)
}

// resultLine assembles the result object from defs, failing when a value
// is missing or not a finite number: a hole in the ledger is a harness
// bug, not something to paper over with a zero.
func resultLine(defs []metricDef, vs *values, correct bool, attempted, failed int64) (result, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vs.v[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// printTable writes the named metrics, one per line, for people.
func printTable(w io.Writer, title string, defs []metricDef, vs *values) {
	fmt.Fprintf(w, "\n%s\n", title)
	for _, d := range defs {
		v, ok := vs.v[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-38s %14.6g %-14s", d.Name, v, d.Unit)
		if n := vs.notes[d.Name]; n != "" {
			line += " " + n
		}
		fmt.Fprintln(w, line)
	}
}

func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
