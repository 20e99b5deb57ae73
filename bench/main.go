// Command bench is lightd's one perf ledger: it boots the real
// server.Server in-process, drives it only through its public surfaces
// with tapes rendered from a seed, prints every end-to-end metric of the
// ledger by name, checks that what the server answered is right, and —
// with -trace 1 — takes the same work apart layer by layer. README.md has
// the tables and the reasons; BENCHMARK.json at the repository root is
// the contract later changes are held to.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	if os.Getenv(clientEnv) != "" {
		os.Exit(loadgenMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes: 1 a correctness check failed, 2 the harness could not run,
// 3 the run is void (the generator was the slow part).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: replay_city, replay_arterial, paced_watch, paced_read or all")
	seed := fs.Int64("seed", 1, "seeds the grid, the traffic simulation, the trace and the reader")
	seconds := fs.Float64("seconds", 10, "how long each workload measures")
	traceOn := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer table instead")
	spans := fs.String("spans", "", "with -trace 1: write every span to this file as JSON lines")
	agree := fs.Int("agree", 0, "run two interleaved sets of N invocations of this binary and compare them")
	workDir := fs.String("workdir", ".bench_build", "directory for tapes, stores and other scratch files")
	full := fs.Bool("full", false, "put the reported-only metrics into the result line too (what -agree asks its runs for)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if wl, ok := findWorkload(*name); ok {
		todo = []workload{wl}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *agree > 0 {
		return runAgree(todo, *agree, *seed, *seconds, *workDir, stdout, stderr)
	}

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	o := runOpts{Seed: *seed, Seconds: *seconds, Trace: *traceOn == 1, Setups: setupRepeats, WorkDir: dir, Spans: *spans}
	if o.Trace {
		o.Setups = 1 // a traced run does not report set-up time
	}

	fmt.Fprintf(stdout, "lightd perf ledger: commit %s, nproc %d, GOMAXPROCS %d, %s, seed %d, %g s per workload, trace %d\n",
		commit(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.Seed, o.Seconds, *traceOn)

	rec := &recorder{}
	tapes := map[*tapeSpec]*built{} // the city workloads share one build
	var reps []*report
	code := 0
	for _, wl := range todo {
		b := tapes[wl.Tape]
		if b == nil {
			if b, err = setUp(*wl.Tape, o); err != nil {
				fmt.Fprintf(stderr, "bench: %s: set-up: %v\n", wl.Name, err)
				return 2
			}
			tapes[wl.Tape] = b
		}
		rep, err := runWorkload(wl, b, o, rec)
		var void errInvalidRun
		switch {
		case errors.As(err, &void):
			fmt.Fprintln(stderr, "bench:", err)
			return 3
		case err != nil:
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		reps = append(reps, rep)
		if printReport(stdout, rep, b) {
			code = 1
		}
	}
	if f := sameAccuracy(reps); f != "" {
		fmt.Fprintf(stdout, "\nfinding: %s\n", f)
	}
	if o.Trace && o.Spans != "" {
		if err := rec.writeJSONL(o.Spans); err != nil {
			fmt.Fprintln(stderr, "bench: spans:", err)
			return 2
		}
		fmt.Fprintf(stdout, "\n%d spans written to %s\n", len(rec.spans), o.Spans)
	}
	if len(reps) == 1 {
		// The machine-readable result: the last line of standard output.
		rep := reps[0]
		defs, vs := endToEnd, rep.e2e
		if *full {
			defs = plainRows()
		}
		if o.Trace {
			defs, vs = perLayer, rep.layers
		}
		res, err := resultLine(defs, vs, rep.correct(), rep.attempted, rep.failed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if err := printResult(stdout, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return code
}

// printReport writes one workload's tables and checks for people and
// reports whether any check failed.
func printReport(w io.Writer, rep *report, b *built) (failed bool) {
	fmt.Fprintf(w, "\n=== %s — %s\n", rep.wl.Name, rep.wl.Why)
	fmt.Fprintf(w, "tape %s: %dx%d lights, %d taxis, %.0f stream-s, %d records, %.1f %% matched\n",
		b.tp.Spec.Name, b.tp.Spec.Rows, b.tp.Spec.Rows, b.tp.Spec.Taxis, b.tp.Spec.Horizon,
		b.tp.records(), 100*float64(b.tp.MatchedCum[b.tp.records()])/float64(b.tp.records()))
	printTable(w, "end-to-end", endToEnd, rep.e2e)
	printTable(w, "reported, held to no bound", reportedOnly, rep.e2e)
	if rep.layers != nil {
		printTable(w, "per layer", perLayer, rep.layers)
		fmt.Fprintln(w)
		for _, line := range rep.shares {
			fmt.Fprintln(w, line)
		}
	}
	bad := rep.checks.failed()
	fmt.Fprintf(w, "\nchecks: %d run, %d failed; %d operations attempted, %d failed\n", len(rep.checks), len(bad), rep.attempted, rep.failed)
	for _, c := range bad {
		fmt.Fprintf(w, "  FAILED %s: %s\n", c.Name, c.Detail)
	}
	for _, f := range rep.findings {
		fmt.Fprintf(w, "  finding: %s\n", f)
	}
	return len(bad) > 0
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}
