package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestGate(t *testing.T) {
	var bm benchmark
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"allocs_per_record","better":"lower","bound":0.08},
		{"name":"ok_ops_frac","better":"higher","bound":0.1},
		{"name":"served_frac","better":"higher","bound":0.1},
		{"name":"cycle_ok_frac","better":"higher","bound":0.2}]}`), &bm); err != nil {
		t.Fatal(err)
	}
	parse := func(line string) (res result) {
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := map[string]float64{"allocs_per_record": 1, "ok_ops_frac": 0.9}
	// The accuracy rows of a replay, pasted from a result line; the second
	// has lost its last digits on the way.
	exact := map[string]float64{"served_frac": 0.9375, "cycle_ok_frac": 0.8888888889}
	for _, tc := range []struct {
		name, line string
		base       map[string]float64
		ok         bool
	}{
		{"inside both bounds", `{"metrics":{"allocs_per_record":{"value":1.07},"ok_ops_frac":{"value":0.82}}}`, base, true},
		{"better than baseline", `{"metrics":{"allocs_per_record":{"value":0.2},"ok_ops_frac":{"value":1}}}`, base, true},
		{"lower-is-better row over its bound", `{"metrics":{"allocs_per_record":{"value":1.09},"ok_ops_frac":{"value":0.9}}}`, base, false},
		{"higher-is-better row under its bound", `{"metrics":{"allocs_per_record":{"value":1},"ok_ops_frac":{"value":0.8}}}`, base, false},
		{"row missing from the result", `{"metrics":{"allocs_per_record":{"value":1}}}`, base, false},
		{"accuracy as recorded", `{"metrics":{"served_frac":{"value":0.9375},"cycle_ok_frac":{"value":0.8888888888888888}}}`, exact, true},
		{"accuracy better than recorded", `{"metrics":{"served_frac":{"value":0.9453125},"cycle_ok_frac":{"value":0.9444444444444444}}}`, exact, true},
		{"one approach fewer served, far inside the row's 10 %", `{"metrics":{"served_frac":{"value":0.9296875},"cycle_ok_frac":{"value":0.8888888888888888}}}`, exact, false},
		{"one cycle fewer right, far inside the row's 20 %", `{"metrics":{"served_frac":{"value":0.9375},"cycle_ok_frac":{"value":0.8333333333333334}}}`, exact, false},
		{"accuracy row missing from the result", `{"metrics":{"served_frac":{"value":0.9375}}}`, exact, false},
	} {
		lines, ok := gate(bm, tc.base, parse(tc.line))
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", tc.name, ok, tc.ok, strings.Join(lines, "\n"))
		}
	}
	if _, ok := gate(bm, map[string]float64{"read_p50_us": 20}, parse(`{"metrics":{"read_p50_us":{"value":20}}}`)); ok {
		t.Error("a baseline for a row BENCHMARK.json does not bound passed the gate")
	}
}
