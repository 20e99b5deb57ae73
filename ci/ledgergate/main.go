// Command ledgergate is the perf ledger's regression gate for the rows
// that repeat on a shared runner. It reads one result line of `bash
// bench/run.sh --workload W --seed 1` on stdin and fails when a row
// committed in ci/ledger_baselines.json for W is worse than its baseline:
// an allocation count — allocs_per_record, alloc_bytes_per_record,
// live_heap_mb — by more than that row's bound in BENCHMARK.json, an
// accuracy census of a replay — served_frac, cycle_ok_frac — at all.
// Timings are compared A/B with `bench/run.sh --agree` and held to
// nothing here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type benchmark struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// baselines maps workload → metric → the value measured at seed 1 when
// the file was last updated.
type baselines map[string]map[string]float64

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// exactRows are the bounded rows that are a function of the tape alone: a
// replay at one seed serves the same approaches and lands the same cycles
// within tolerance run after run, digit for digit. BENCHMARK.json bounds
// them at 10 and 20 % because they differ that much from seed to seed;
// against a baseline of the same seed any drop is a changed answer — or a
// changed tape byte — so a baseline for one of them is held to no worse.
var exactRows = map[string]bool{"served_frac": true, "cycle_ok_frac": true}

// exactSlack forgives a baseline pasted with ten digits instead of
// seventeen; one approach more or less, even of a ten-thousand-light
// city's, moves these fractions by far more.
const exactSlack = 1e-9

// gate compares one workload's result against its baselines and returns
// one line per gated row plus whether every row held.
func gate(bm benchmark, base map[string]float64, res result) (lines []string, ok bool) {
	ok = true
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base[name]
		bound, lower, known := 0.0, true, false
		for _, m := range bm.EndToEnd {
			if m.Name == name {
				bound, lower, known = m.Bound, m.Better == "lower", true
			}
		}
		slack := want * bound
		if exactRows[name] {
			bound, slack = 0, exactSlack
		}
		got, measured := res.Metrics[name]
		verdict := "ok"
		switch {
		case !known:
			verdict = "FAIL: not a bounded row of BENCHMARK.json"
		case !measured:
			verdict = "FAIL: missing from the result"
		case lower && got.Value > want+slack, !lower && got.Value < want-slack:
			verdict = "FAIL"
		}
		if verdict != "ok" {
			ok = false
		}
		lines = append(lines, fmt.Sprintf("  %-24s baseline %-10.4g measured %-10.4g bound %2.0f%%  %s", name, want, got.Value, 100*bound, verdict))
	}
	return lines, ok
}

func main() {
	workload := flag.String("workload", "", "workload the result on stdin belongs to")
	benchPath := flag.String("benchmark", "BENCHMARK.json", "benchmark declaration (row bounds)")
	basePath := flag.String("baselines", "ci/ledger_baselines.json", "committed baselines")
	flag.Parse()
	fail := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "ledgergate: "+format+"\n", a...)
		os.Exit(2)
	}
	var bm benchmark
	if err := readJSON(*benchPath, &bm); err != nil {
		fail("%v", err)
	}
	var all baselines
	if err := readJSON(*basePath, &all); err != nil {
		fail("%v", err)
	}
	base, found := all[*workload]
	if !found {
		fail("no baselines for workload %q in %s", *workload, *basePath)
	}
	in, err := io.ReadAll(os.Stdin)
	if err != nil {
		fail("%v", err)
	}
	var res result
	if err := json.Unmarshal(in, &res); err != nil {
		fail("stdin is not a result line: %v", err)
	}
	lines, ok := gate(bm, base, res)
	fmt.Println(*workload)
	for _, l := range lines {
		fmt.Println(l)
	}
	if !res.Correct {
		fmt.Println("  the run reported \"correct\": false")
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}
