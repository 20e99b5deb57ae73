// Command tracegen generates a synthetic Shenzhen-like taxi trace in the
// Table-I CSV format, together with a ground-truth schedule file, so the
// identification pipeline can be exercised and scored offline.
//
// The -fault-* flags run the trace through the internal/faults injectors
// before writing, producing a reproducible hostile feed: CSV byte
// corruption, duplicated and out-of-order delivery, per-device clock
// skew, frozen-GPS runs, teleporting fixes and bursty drop. -hostile
// enables all of them at the reference rates.
//
// With -stream the records go to stdout paced by their timestamps
// (compressed by -speedup), so the serving daemon can be demoed against
// a live feed end to end:
//
//	tracegen -stream -speedup 60 | lightd -in -
//
// With -chaos-proxy the same paced stream is served over TCP behind a
// faults.FlakyProxy (resets, mid-line cuts, stalls, slow-loris trickle,
// forced disconnects), so a dial-out lightd can be drilled against a
// hostile network path:
//
//	tracegen -chaos-proxy 127.0.0.1:7001 -chaos-conn-bytes 65536 &
//	lightd -in tcp+dial://127.0.0.1:7001
//
// With -megacity N the generator switches to the district-sharded
// megacity: N independently simulated Rows×Cols districts composed into
// one road network with globally unique light IDs and plates. Each
// district's trace goes to its own file (-o trace.csv becomes
// trace-d00.csv, trace-d01.csv, ...) so the feed can be replayed
// partitioned, exactly how a sharded lightd ingests it; -network and
// -truth describe the merged city.
//
// Usage:
//
//	tracegen -taxis 300 -hours 1 -rows 4 -cols 4 -o trace.csv -truth truth.csv
//	tracegen -hostile -o hostile.csv.gz            # reference hostile feed
//	tracegen -fault-corrupt 0.02 -fault-dup 0.1 -o dirty.csv
//	tracegen -stream -speedup 120 -hostile | lightd -in -
//	tracegen -megacity 25 -rows 20 -cols 20 -taxis 1120 -hours 24 \
//	       -o mega.csv.gz -network mega-net.txt -truth mega-truth.csv
package main

import (
	"bufio"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"taxilight/internal/experiments"
	"taxilight/internal/faults"
	"taxilight/internal/lights"
	"taxilight/internal/roadnet"
	"taxilight/internal/trace"
)

func main() {
	taxis := flag.Int("taxis", 300, "fleet size")
	hours := flag.Float64("hours", 1, "simulated duration in hours")
	rows := flag.Int("rows", 4, "grid rows")
	cols := flag.Int("cols", 4, "grid columns")
	seed := flag.Int64("seed", 1, "random seed")
	dynShare := flag.Float64("dynamic", 0, "share of pre-programmed dynamic lights")
	out := flag.String("o", "trace.csv", "output trace file (Table-I CSV; .gz compresses)")
	truthOut := flag.String("truth", "", "optional ground-truth schedule file")
	netOut := flag.String("network", "", "optional network file (complete map + light ground truth)")
	megacity := flag.Int("megacity", 0, "compose this many independently simulated -rows x -cols districts into one city; -taxis sizes each district's fleet and -o fans out to one trace file per district")
	diurnal := flag.Bool("diurnal", false, "sample reports through the Shenzhen diurnal activity profile")

	hostile := flag.Bool("hostile", false, "enable every fault injector at the reference hostile rates")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection seed (independent of -seed)")
	corrupt := flag.Float64("fault-corrupt", 0, "per-line CSV byte-corruption probability")
	dup := flag.Float64("fault-dup", 0, "per-record duplication probability")
	reorder := flag.Float64("fault-reorder", 0, "per-record out-of-order delivery probability")
	reorderDelay := flag.Int("fault-reorder-delay", 20, "max records a reordered record is delayed by")
	skew := flag.Float64("fault-skew", 0, "per-device clock-skew probability")
	skewMax := flag.Float64("fault-skew-max", 30, "max clock skew, seconds")
	freeze := flag.Float64("fault-freeze", 0, "per-record frozen-GPS run-start probability")
	freezeRun := flag.Int("fault-freeze-run", 5, "max reports in one frozen-GPS run")
	teleport := flag.Float64("fault-teleport", 0, "per-record teleporting-fix probability")
	teleportM := flag.Float64("fault-teleport-m", 800, "max teleport displacement, metres")
	burstDrop := flag.Float64("fault-burstdrop", 0, "per-record drop-burst-start probability")
	burstLen := flag.Int("fault-burst-len", 10, "max reports lost in one drop burst")
	stream := flag.Bool("stream", false, "emit records to stdout paced by record timestamp instead of writing -o")
	speedup := flag.Float64("speedup", 60, "with -stream or -chaos-proxy, time compression factor (1 = real time)")
	chaosProxy := flag.String("chaos-proxy", "", "serve the paced stream on this TCP address through a faults.FlakyProxy (resets, cuts, stalls, trickle); every connection replays from the start")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos-proxy fault schedule seed")
	chaosConnBytes := flag.Int64("chaos-conn-bytes", 0, "force-disconnect each chaos-proxy connection after roughly this many bytes (0 = never)")
	chaosGrowth := flag.Float64("chaos-growth", 2, "per-connection growth of the chaos-proxy byte budget (>= 1)")
	flag.Parse()
	if (*stream || *chaosProxy != "") && *speedup <= 0 {
		fatal(fmt.Errorf("-speedup must be positive, got %v", *speedup))
	}

	if *megacity > 0 {
		anyFault := *hostile || *corrupt > 0 || *dup > 0 || *reorder > 0 ||
			*skew > 0 || *freeze > 0 || *teleport > 0 || *burstDrop > 0
		if *stream || *chaosProxy != "" || anyFault {
			fatal(fmt.Errorf("-megacity writes per-district files; replay them with lightd's multi-source -in rather than -stream/-chaos-proxy, and inject faults per district file"))
		}
		if err := runMegacity(experiments.MegacityConfig{
			Districts:        *megacity,
			Rows:             *rows,
			Cols:             *cols,
			TaxisPerDistrict: *taxis,
			Seed:             *seed,
			DynamicShare:     *dynShare,
			Diurnal:          *diurnal,
		}, *hours*3600, *out, *netOut, *truthOut, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	cfg := experiments.DefaultWorldConfig()
	cfg.Taxis = *taxis
	cfg.Horizon = *hours * 3600
	cfg.Rows, cfg.Cols = *rows, *cols
	cfg.Seed = *seed
	cfg.DynamicShare = *dynShare
	cfg.Diurnal = *diurnal
	world, err := experiments.BuildWorld(cfg)
	if err != nil {
		fatal(err)
	}

	fcfg := faults.Config{
		Seed:            *faultSeed,
		CorruptProb:     *corrupt,
		DupProb:         *dup,
		ReorderProb:     *reorder,
		ReorderMaxDelay: *reorderDelay,
		SkewProb:        *skew,
		SkewMaxSeconds:  *skewMax,
		FreezeProb:      *freeze,
		FreezeMaxRun:    *freezeRun,
		TeleportProb:    *teleport,
		TeleportMeters:  *teleportM,
		BurstDropProb:   *burstDrop,
		BurstDropMaxLen: *burstLen,
	}
	if *hostile {
		fcfg = faults.DefaultHostileConfig()
		fcfg.Seed = *faultSeed
	}
	active := fcfg.CorruptProb > 0 || fcfg.DupProb > 0 || fcfg.ReorderProb > 0 ||
		fcfg.SkewProb > 0 || fcfg.FreezeProb > 0 || fcfg.TeleportProb > 0 ||
		fcfg.BurstDropProb > 0
	// In stream mode stdout carries the feed; all status goes to stderr.
	status := os.Stdout
	if *stream {
		status = os.Stderr
	}

	if *netOut != "" {
		if err := writeNetworkFile(*netOut, world.Net, status); err != nil {
			fatal(err)
		}
	}

	if *truthOut != "" {
		if err := writeTruthFile(*truthOut, world.Net, cfg.Horizon/2, status); err != nil {
			fatal(err)
		}
	}

	if *chaosProxy != "" {
		// Record-level faults apply once; line corruption is re-rolled
		// per connection (same seed) inside the feeder.
		recs := world.Records
		if active {
			p, err := faults.New(fcfg)
			if err != nil {
				fatal(err)
			}
			recs = p.Apply(recs)
		}
		pcfg := faults.DefaultFlakyProxyConfig("")
		pcfg.Seed = *chaosSeed
		pcfg.MaxConnBytes = *chaosConnBytes
		pcfg.ConnBytesGrowth = *chaosGrowth
		if err := serveChaosProxy(*chaosProxy, recs, fcfg, active, *speedup, pcfg); err != nil {
			fatal(err)
		}
		return
	}
	if *stream {
		// Record-level faults apply before pacing; line-level corruption
		// applies at emission, like the file writer.
		recs := world.Records
		var p *faults.Pipeline
		if active {
			p, err = faults.New(fcfg)
			if err != nil {
				fatal(err)
			}
			recs = p.Apply(recs)
		}
		fmt.Fprintf(os.Stderr, "tracegen: streaming %d records at %gx\n", len(recs), *speedup)
		if err := streamRecords(os.Stdout, recs, p, *speedup); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "tracegen: stream complete")
		return
	}
	if !active {
		// Clean feed: the plain writer (gzip-aware via the path suffix).
		if err := trace.WriteFile(*out, world.Records); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d records to %s\n", len(world.Records), *out)
	} else {
		p, err := faults.New(fcfg)
		if err != nil {
			fatal(err)
		}
		recs := p.Apply(world.Records)
		if err := p.WriteFile(*out, recs); err != nil {
			fatal(err)
		}
		st := p.Stats()
		fmt.Printf("wrote %d records to %s (faulted from %d clean)\n", len(recs), *out, st.Records)
		fmt.Printf("faults: %d duplicated, %d reordered, %d dropped, %d frozen, %d teleported, %d skewed devices, %d corrupted lines\n",
			st.Duplicated, st.Reordered, st.Dropped, st.Frozen, st.Teleported, st.SkewedDevices, st.CorruptedLines)
	}

}

// streamRecords emits records to w paced by their timestamps: the gap
// between consecutive report times is slept through, divided by speedup,
// so `tracegen -stream | lightd -in -` behaves like a live fleet uplink.
// Out-of-order records (fault injection) are emitted immediately — the
// pacing clock only moves forward, like wall time. When p is non-nil its
// line corrupter is applied at emission.
func streamRecords(w io.Writer, recs []trace.Record, p *faults.Pipeline, speedup float64) error {
	bw := bufio.NewWriter(w)
	var clock time.Time
	var line []byte
	for _, r := range recs {
		if !clock.IsZero() && r.Time.After(clock) {
			// Flush what the consumer is entitled to before sleeping.
			if err := bw.Flush(); err != nil {
				return err
			}
			time.Sleep(time.Duration(float64(r.Time.Sub(clock)) / speedup))
		}
		if r.Time.After(clock) {
			clock = r.Time
		}
		line = r.AppendCSV(line[:0])
		if p != nil {
			damaged, _ := p.CorruptLine(string(line))
			line = append(line[:0], damaged...)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// serveChaosProxy serves the paced record stream on addr through a
// FlakyProxy — a one-command hostile feed for reconnection drills:
//
//	tracegen -chaos-proxy 127.0.0.1:7001 -chaos-conn-bytes 65536 &
//	lightd -in tcp+dial://127.0.0.1:7001
//
// An internal feeder listens on a loopback port and replays the whole
// stream (from the start) to every connection; the proxy in front
// injects resets, mid-line cuts, stalls, trickle and forced
// disconnects. The replay-from-start feeder is deliberate: it is
// exactly the upstream behaviour lightd's resume dedup exists for.
func serveChaosProxy(addr string, recs []trace.Record, fcfg faults.Config, corrupt bool, speedup float64, pcfg faults.FlakyProxyConfig) error {
	feeder, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer feeder.Close()
	go func() {
		for {
			conn, err := feeder.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var p *faults.Pipeline
				if corrupt {
					// A fresh pipeline per connection keeps line
					// corruption identical across replays.
					cp, perr := faults.New(fcfg)
					if perr != nil {
						return
					}
					p = cp
				}
				_ = streamRecords(c, recs, p, speedup)
			}(conn)
		}
	}()
	pcfg.Target = feeder.Addr().String()
	proxy, err := faults.NewFlakyProxy(pcfg)
	if err != nil {
		return err
	}
	if err := proxy.Start(addr); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: chaos proxy on %s (%d records behind it); connect with: lightd -in tcp+dial://%s\n",
		proxy.Addr(), len(recs), proxy.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	err = proxy.Close()
	st := proxy.Stats()
	fmt.Fprintf(os.Stderr, "tracegen: chaos proxy served %d conns, %d B; %d resets, %d cuts, %d forced disconnects, %d stalls, %d trickles\n",
		st.Conns, st.BytesRelayed, st.Resets, st.Cuts, st.ForcedDisconnects, st.Stalls, st.Trickles)
	return err
}

// writeNetworkFile serialises the (possibly merged) road network.
func writeNetworkFile(path string, net *roadnet.Network, status io.Writer) error {
	nf, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := roadnet.WriteNetwork(nf, net); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(status, "wrote network to %s\n", path)
	return nil
}

// writeTruthFile dumps every light's mid-run schedule for offline scoring.
func writeTruthFile(path string, net *roadnet.Network, mid float64, status io.Writer) error {
	tf, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(tf, "light,approach,cycle,red,offset")
	for _, nd := range net.SignalisedNodes() {
		for _, app := range []lights.Approach{lights.NorthSouth, lights.EastWest} {
			s := nd.Light.ScheduleFor(app, mid)
			fmt.Fprintf(tf, "%d,%s,%.0f,%.0f,%.0f\n", nd.ID, app, s.Cycle, s.Red, s.Offset)
		}
	}
	if err := tf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(status, "wrote ground truth to %s\n", path)
	return nil
}

// districtPath derives district i's trace file from the -o path by
// inserting "-dNN" before the extension: trace.csv.gz -> trace-d07.csv.gz.
func districtPath(path string, i int) string {
	gz := ""
	if strings.HasSuffix(path, ".gz") {
		gz = ".gz"
		path = strings.TrimSuffix(path, ".gz")
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s-d%02d%s%s", strings.TrimSuffix(path, ext), i, ext, gz)
}

// runMegacity generates the district-sharded city: one trace file per
// district (streamed, so a full-day 10k-light city never holds more than
// a few seconds of records in memory per district), plus the merged
// network and ground truth. Districts simulate independently — the
// whole-city trace is their union, and each file is one shard of the
// feed — so up to GOMAXPROCS of them render at once; what each file holds
// does not depend on what renders beside it, and the "wrote" lines still
// come out in district order.
func runMegacity(mcfg experiments.MegacityConfig, horizon float64, out, netOut, truthOut string, status io.Writer) error {
	m, err := experiments.BuildMegacity(mcfg)
	if err != nil {
		return err
	}
	if netOut != "" {
		if err := writeNetworkFile(netOut, m.Net, status); err != nil {
			return err
		}
	}
	if truthOut != "" {
		if err := writeTruthFile(truthOut, m.Net, horizon/2, status); err != nil {
			return err
		}
	}
	n := len(m.Districts)
	records, errs, done := make([]int, n), make([]error, n), make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	// Workers take districts in order. After a failure they still take
	// the rest, and close each one's channel, but render nothing: the
	// loop below reaches the failed district before any skipped one.
	todo := make(chan int, n)
	for i := range m.Districts {
		todo <- i
	}
	close(todo)
	var failed atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range todo {
				if !failed.Load() {
					d := m.Districts[i]
					records[i], errs[i] = writeDistrict(d, districtPath(out, d.Index), horizon)
					if errs[i] != nil {
						failed.Store(true)
					}
				}
				close(done[i])
			}
		}()
	}
	total := 0
	for i, d := range m.Districts {
		<-done[i]
		if errs[i] != nil {
			return fmt.Errorf("district %d: %w", d.Index, errs[i])
		}
		total += records[i]
		fmt.Fprintf(status, "wrote %d records to %s\n", records[i], districtPath(out, d.Index))
	}
	fmt.Fprintf(status, "megacity: %d districts, %d lights, %d records across %d trace files\n",
		n, m.Lights, total, n)
	return nil
}

// writeDistrict streams one district's trace to path (gzip by suffix) and
// returns how many records it wrote.
func writeDistrict(d *experiments.District, path string, horizon float64) (n int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	var w io.Writer = f
	var zw *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		zw = gzip.NewWriter(f)
		w = zw
	}
	bw := bufio.NewWriter(w)
	var line []byte
	err = d.StreamRecords(horizon, func(r trace.Record) error {
		line = append(r.AppendCSV(line[:0]), '\n')
		n++
		_, err := bw.Write(line)
		return err
	})
	if err == nil {
		err = bw.Flush()
	}
	if err == nil && zw != nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
