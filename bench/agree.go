package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAgree is the tool for "did this move?": two sets, A and B, of n
// invocations of this same binary, interleaved A B A B so that host drift
// lands on both, invocation i of either set on seed+i. Per workload and
// metric — the bounded end-to-end rows and the reported-only ones — it
// prints both medians, both quartile spreads (as the driver computes
// them) and the bound, and calls the pair
//
//	agree       when B's median is no worse than A's by more than the bound,
//	unresolved  when either spread is wider than the bound,
//	disagree    otherwise.
//
// A reported-only row has no bound; the wider of its two spreads stands in.
//
// To compare two commits, build each once and point A and B at the two
// binaries with BENCH_A and BENCH_B; unset, both are this binary.
func runAgree(todo []workload, n int, seed int64, seconds float64, workDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	bins := [2]string{self, self}
	if v := os.Getenv("BENCH_A"); v != "" {
		bins[0] = v
	}
	if v := os.Getenv("BENCH_B"); v != "" {
		bins[1] = v
	}
	code := 0
	for _, wl := range todo {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			for side := 0; side < 2; side++ {
				res, err := invoke(bins[side], wl.Name, seed+int64(i), seconds, workDir, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s run %d%c: %v\n", wl.Name, i, 'A'+side, err)
					return 2
				}
				if !res.Correct {
					fmt.Fprintf(stderr, "bench: %s run %d%c failed its correctness gate\n", wl.Name, i, 'A'+side)
					code = 1
				}
				for name, mv := range res.Metrics {
					sets[side][name] = append(sets[side][name], mv.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "\n=== %s: %d runs per set, seeds %d..%d\n", wl.Name, n, seed, seed+int64(n)-1)
		fmt.Fprintf(stdout, "  %-22s %14s %14s %9s %9s %7s  %s\n", "metric", "median A", "median B", "spread A", "spread B", "bound", "verdict")
		for _, d := range plainRows() {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			sa, sb := quartileSpread(a), quartileSpread(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			// A row without a bound of its own is judged against the wider
			// of its two spreads: B disagrees when it is worse than A by
			// more than A's and B's own runs differ among themselves.
			bound, shown := d.Bound, fmt.Sprintf("%5.1f%%", 100*d.Bound)
			if bound == 0 {
				bound, shown = math.Max(sa, sb), "spread"
			}
			v := "agree"
			switch {
			case d.Bound > 0 && (sa > d.Bound || sb > d.Bound):
				v = "unresolved"
			case worse > bound:
				v = "disagree"
			}
			if v != "agree" {
				code = 1
			}
			fmt.Fprintf(stdout, "  %-22s %14.6g %14.6g %8.2f%% %8.2f%% %7s  %s\n", d.Name, ma, mb, 100*sa, 100*sb, shown, v)
		}
	}
	return code
}

// invoke runs one child to completion and decodes the result line it
// printed last.
func invoke(bin, workload string, seed int64, seconds float64, workDir string, stderr io.Writer) (result, error) {
	var res result
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-full", "-workdir", workDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return res, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	return res, json.Unmarshal(lines[len(lines)-1], &res)
}
