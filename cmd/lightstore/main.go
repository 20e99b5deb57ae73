// Command lightstore inspects and maintains a lightd estimate store
// offline: summarise what a store directory holds, walk every CRC to
// prove integrity after a crash, force a compaction pass, or dump the
// persisted history of one signal approach.
//
// Usage:
//
//	lightstore info    -dir /var/lib/lightd
//	lightstore verify  -dir /var/lib/lightd
//	lightstore compact -dir /var/lib/lightd -retention 24h
//	lightstore history -dir /var/lib/lightd -light 3 -approach NS
//
// verify exits nonzero when the walk finds an integrity violation, so
// it slots into health checks and post-crash runbooks.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "info":
		err = runInfo(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "compact":
		err = runCompact(os.Args[2:])
	case "history":
		err = runHistory(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "lightstore: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lightstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lightstore <command> [flags]

commands:
  info     summarise segments, checkpoints and the recoverable state
  verify   read-only CRC walk over every frame; nonzero exit on damage
  compact  run one retention/compaction pass and report what it removed
  history  print the persisted estimate history of one approach

run "lightstore <command> -h" for the flags of each command.`)
}

// dirFlag registers the one flag every command shares.
func dirFlag(fs *flag.FlagSet) *string {
	return fs.String("dir", "", "store directory (required)")
}

func parseDir(fs *flag.FlagSet, args []string, dir *string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		fs.Usage()
		return fmt.Errorf("-dir is required")
	}
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("lightstore info", flag.ExitOnError)
	dir := dirFlag(fs)
	if err := parseDir(fs, args, dir); err != nil {
		return err
	}
	st, err := store.Open(*dir, store.DefaultConfig())
	if err != nil {
		return err
	}
	defer st.Close()
	stats := st.Stats()
	state, replayed := st.RecoveredState()

	fmt.Printf("store          %s\n", st.Dir())
	fmt.Printf("segments       %d (%d bytes)\n", stats.Segments, stats.SegmentBytes)
	fmt.Printf("checkpoints    %d on disk\n", stats.CheckpointFiles)
	fmt.Printf("last seq       %d\n", stats.LastSeq)
	fmt.Printf("stream clock   %.1f s\n", state.Now)
	fmt.Printf("approaches     %d recoverable (%d replayed from the WAL tail)\n",
		len(state.Approaches), replayed)
	if stats.TornTail {
		fmt.Println("torn tail      truncated on open (crash residue, now repaired)")
	}

	keys := make([]mapmatch.Key, 0, len(state.Approaches))
	for k := range state.Approaches {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Light != keys[j].Light {
			return keys[i].Light < keys[j].Light
		}
		return keys[i].Approach < keys[j].Approach
	})
	for _, k := range keys {
		ap := state.Approaches[k]
		plateau := "-" // the monitor has no plateau before its second estimate
		if m := ap.Monitor; m.Held == 2 {
			plateau = fmt.Sprintf("%.1f s", m.Plateau)
		}
		fmt.Printf("  light %-6d %s  cycle %6.1f s  red %5.1f s  window [%.0f, %.0f)  monitor plateau %s\n",
			int64(k.Light), k.Approach, ap.Result.Cycle, ap.Result.Red,
			ap.Result.WindowStart, ap.Result.WindowEnd, plateau)
	}
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("lightstore verify", flag.ExitOnError)
	dir := dirFlag(fs)
	if err := parseDir(fs, args, dir); err != nil {
		return err
	}
	rep, err := store.Verify(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("segments       %d\n", rep.Segments)
	fmt.Printf("records        %d (%d bytes)\n", rep.Records, rep.Bytes)
	fmt.Printf("checkpoints    %d valid\n", rep.Checkpoints)
	if rep.TornTailBytes > 0 {
		fmt.Printf("torn tail      %d bytes (crash residue; recovery will truncate)\n", rep.TornTailBytes)
	}
	if !rep.OK() {
		for _, p := range rep.Problems {
			fmt.Printf("PROBLEM        %s\n", p)
		}
		return fmt.Errorf("%d integrity problem(s)", len(rep.Problems))
	}
	fmt.Println("ok")
	return nil
}

func runCompact(args []string) error {
	fs := flag.NewFlagSet("lightstore compact", flag.ExitOnError)
	dir := dirFlag(fs)
	retention := fs.Duration("retention", 0, "drop sealed segments older than this stream age (0 keeps all ages)")
	maxBytes := fs.Int64("max-bytes", 0, "drop oldest sealed segments while the WAL exceeds this size (0 = no size cap)")
	if err := parseDir(fs, args, dir); err != nil {
		return err
	}
	cfg := store.DefaultConfig()
	cfg.RetentionAge = retention.Seconds()
	cfg.RetentionBytes = *maxBytes
	// Open compacts under cfg's retention, so what was on disk before is
	// read without opening the store.
	before, err := store.Verify(*dir)
	if err != nil {
		return err
	}
	st, err := store.Open(*dir, cfg)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.Compact(); err != nil {
		return err
	}
	after := st.Stats()
	fmt.Printf("segments       %d -> %d\n", before.Segments, after.Segments)
	fmt.Printf("bytes          %d -> %d\n", before.Bytes, after.SegmentBytes)
	fmt.Printf("checkpoints    %d -> %d\n", before.Checkpoints, after.CheckpointFiles)
	return nil
}

func runHistory(args []string) error {
	fs := flag.NewFlagSet("lightstore history", flag.ExitOnError)
	dir := dirFlag(fs)
	light := fs.Int64("light", -1, "light (node) id (required)")
	approach := fs.String("approach", "NS", `approach: "NS" or "EW"`)
	from := fs.Float64("from", 0, "lower stream-time bound in seconds")
	to := fs.Float64("to", 0, "upper stream-time bound in seconds (0 = no bound)")
	limit := fs.Int("limit", 0, "print only the newest N records (0 = all)")
	if err := parseDir(fs, args, dir); err != nil {
		return err
	}
	if *light < 0 {
		return fmt.Errorf("-light is required")
	}
	var ap lights.Approach
	switch *approach {
	case "NS":
		ap = lights.NorthSouth
	case "EW":
		ap = lights.EastWest
	default:
		return fmt.Errorf("-approach must be NS or EW, got %q", *approach)
	}
	hi := *to
	if hi == 0 {
		hi = maxStreamTime
	}
	st, err := store.Open(*dir, store.DefaultConfig())
	if err != nil {
		return err
	}
	defer st.Close()
	key := mapmatch.Key{Light: roadnet.NodeID(*light), Approach: ap}
	recs, err := st.History(key, *from, hi, *limit)
	if err != nil {
		return err
	}
	fmt.Printf("light %d %s: %d record(s)\n", *light, ap, len(recs))
	for _, r := range recs {
		fmt.Printf("  seq %-8d window [%8.0f, %8.0f)  cycle %6.1f s  red %5.1f s  green %5.1f s  quality %.2f  records %d\n",
			r.Seq, r.WindowStart, r.WindowEnd, r.Cycle, r.Red, r.Green, r.Quality, r.Records)
	}
	return nil
}

// maxStreamTime stands in for "no upper bound" in history queries; far
// beyond any stream clock (about 31 million years of seconds).
const maxStreamTime = 1e15
