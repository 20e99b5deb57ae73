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
		{"name":"served_frac","better":"higher","bound":0.1}]}`), &bm); err != nil {
		t.Fatal(err)
	}
	parse := func(line string) (res result) {
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := map[string]float64{"allocs_per_record": 1, "served_frac": 0.9}
	for _, tc := range []struct {
		name, line string
		ok         bool
	}{
		{"inside both bounds", `{"metrics":{"allocs_per_record":{"value":1.07},"served_frac":{"value":0.82}}}`, true},
		{"better than baseline", `{"metrics":{"allocs_per_record":{"value":0.2},"served_frac":{"value":1}}}`, true},
		{"lower-is-better row over its bound", `{"metrics":{"allocs_per_record":{"value":1.09},"served_frac":{"value":0.9}}}`, false},
		{"higher-is-better row under its bound", `{"metrics":{"allocs_per_record":{"value":1},"served_frac":{"value":0.8}}}`, false},
		{"row missing from the result", `{"metrics":{"allocs_per_record":{"value":1}}}`, false},
	} {
		lines, ok := gate(bm, base, parse(tc.line))
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", tc.name, ok, tc.ok, strings.Join(lines, "\n"))
		}
	}
	if _, ok := gate(bm, map[string]float64{"read_p50_us": 20}, parse(`{"metrics":{"read_p50_us":{"value":20}}}`)); ok {
		t.Error("a baseline for a row BENCHMARK.json does not bound passed the gate")
	}
}
