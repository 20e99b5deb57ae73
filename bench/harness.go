package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"taxilight/internal/core"
	"taxilight/internal/ingest"
	"taxilight/internal/routesvc"
	"taxilight/internal/server"
	"taxilight/internal/store"
)

// nowNs is the one clock every stamp of a run is taken on: wall-clock
// nanoseconds, because the stamps of two processes are compared.
func nowNs() int64 { return time.Now().UnixNano() }

// instance is one booted lightd: the real server.Server on its default
// configuration, reachable only the way a deployment reaches it — a
// tcp:// listen source for the feed and the HTTP API for everything else.
type instance struct {
	srv      *server.Server
	st       *store.Store
	httpAddr string
	feedAddr string

	stopIngest context.CancelFunc
	ingestDone chan error
	stopHTTP   context.CancelFunc
	httpDone   chan error
	feedDown   bool
	closed     bool
}

type bootOpts struct {
	// StoreDir, when set, opens a durable store there (the deployed
	// posture); empty runs without persistence.
	StoreDir string
	// OnRound is installed as Config.OnRound; nil in untraced runs.
	OnRound func(shard int, st core.RoundStats)
}

// watchQueueWaves is how many round-waves of frames the one subscriber
// may lag: the hub enqueues a frame per key and evicts on overflow, and a
// replay publishes all four shards' rounds within milliseconds.
const watchQueueWaves = 8

// benchConfig is server.DefaultConfig with the two limits one subscriber
// watching a whole city needs lifted: the per-subscription key cap and
// the frame queue.
func benchConfig(tp *tape) server.Config {
	cfg := server.DefaultConfig()
	cfg.MaxWatchKeys = len(tp.Keys)
	cfg.WatchQueue = watchQueueWaves * len(tp.Keys)
	return cfg
}

// freeAddr reserves a loopback port by binding and releasing it; the
// server's listen source and HTTP listener take their addresses as
// configuration, so they cannot be asked which port they got.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// boot starts a fresh server on tp's network and returns once both
// listeners accept connections.
func boot(tp *tape, o bootOpts) (*instance, error) {
	cfg := benchConfig(tp)
	cfg.OnRound = o.OnRound
	in := &instance{}
	if o.StoreDir != "" {
		st, err := store.Open(o.StoreDir, store.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("boot: store: %w", err)
		}
		in.st = st
		cfg.Store = st
	}
	srv, err := newServer(tp, cfg)
	if err == nil {
		in.feedAddr, err = freeAddr()
	}
	if err == nil {
		in.httpAddr, err = freeAddr()
	}
	if err != nil {
		if in.st != nil {
			in.st.Close() // nothing was written; the boot error is the one to report
		}
		return nil, fmt.Errorf("boot: %w", err)
	}
	in.srv = srv
	srv.Start()
	ictx, icancel := context.WithCancel(context.Background())
	in.stopIngest, in.ingestDone = icancel, make(chan error, 1)
	go func() { in.ingestDone <- srv.RunSources(ictx, "feed=tcp://"+in.feedAddr) }()
	hctx, hcancel := context.WithCancel(context.Background())
	in.stopHTTP, in.httpDone = hcancel, make(chan error, 1)
	go func() { in.httpDone <- srv.ListenAndServe(hctx, in.httpAddr) }()
	c, err := dialRetry(in.httpAddr, in.httpDone)
	if err != nil {
		in.close()
		return nil, fmt.Errorf("boot: http: %w", err)
	}
	return in, c.Close()
}

// newServer builds a server with the routing service installed, as
// cmd/lightd wires them.
func newServer(tp *tape, cfg server.Config) (*server.Server, error) {
	srv, err := server.New(tp.Matcher, cfg)
	if err != nil {
		return nil, err
	}
	rs, err := routesvc.New(tp.Net, srv.RoutePredictions())
	if err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	srv.SetRouteService(rs)
	return srv, nil
}

// dialRetry connects to addr, retrying while the listener comes up. failed,
// when not nil, is the channel the listener's goroutine reports its exit
// on: a listener that has given up is not waited for.
func dialRetry(addr string, failed chan error) (net.Conn, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c, nil
		}
		select {
		case ferr := <-failed:
			failed <- ferr // whoever owns the goroutine still waits for it
			return nil, fmt.Errorf("listener on %s exited: %v", addr, ferr)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (in *instance) source() (ingest.SourceStatus, bool) {
	sts := in.srv.SourceStatuses()
	if len(sts) != 1 {
		return ingest.SourceStatus{}, false
	}
	return sts[0], true
}

// waitConsumed blocks until the source has read the feed connection to
// its end and flushed every partial batch to the shards, and returns how
// long that took after the call. Whether every line was admitted is for
// the gate to say.
func (in *instance) waitConsumed(timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	for {
		st, ok := in.source()
		if ok && st.ConnsTotal >= 1 && st.ConnsActive == 0 {
			return time.Since(start), nil
		}
		if time.Since(start) > timeout {
			return time.Since(start), fmt.Errorf("feed connection not consumed after %v: %d records admitted, last error %q",
				timeout, st.Records, st.LastError)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stopFeed ends ingest the way lightd's shutdown does: sources first,
// then StopIngest, which drains the shards, runs their final rounds and
// (with a store) the final checkpoint.
func (in *instance) stopFeed() error {
	if in.feedDown {
		return nil
	}
	in.feedDown = true
	in.stopIngest()
	err := <-in.ingestDone
	in.srv.StopIngest()
	if err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("ingest: %w", err)
	}
	return nil
}

// close tears the instance down and, with a store, closes it.
func (in *instance) close() error {
	if in.closed {
		return nil
	}
	in.closed = true
	err := in.stopFeed()
	in.stopHTTP()
	if herr := <-in.httpDone; herr != nil && !errors.Is(herr, http.ErrServerClosed) && err == nil {
		err = fmt.Errorf("http: %w", herr)
	}
	if in.st != nil {
		if cerr := in.st.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("store close: %w", cerr)
		}
		in.st = nil
	}
	return err
}

// scrape fetches the few pages a lap reads once; no connection outlives
// its request, so nothing lingers into the next lap's server.
var scrape = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}

func (in *instance) get(path string) (int, []byte, error) {
	resp, err := scrape.Get("http://" + in.httpAddr + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// snapshot fetches /v1/snapshot, the served state of every approach.
func (in *instance) snapshot() (server.SnapshotDoc, error) {
	var doc server.SnapshotDoc
	code, body, err := in.get("/v1/snapshot")
	if err != nil {
		return doc, err
	}
	if code != http.StatusOK {
		return doc, fmt.Errorf("/v1/snapshot: status %d", code)
	}
	return doc, json.Unmarshal(body, &doc)
}

// healthz is the part of /healthz the ledger reads.
type healthz struct {
	Buffered int `json:"buffered_records"`
}

func (in *instance) healthz() (healthz, error) {
	var h healthz
	_, body, err := in.get("/healthz") // 503 while nothing is fresh is still a report
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(body, &h)
}

// counters is a parsed /metrics page: full sample name, labels included,
// to value.
type counters map[string]float64

func (in *instance) metrics() (counters, error) {
	code, body, err := in.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return parseMetrics(string(body)), nil
}

func parseMetrics(page string) counters {
	out := counters{}
	sc := bufio.NewScanner(strings.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sumPrefix adds every sample whose name starts with prefix — all label
// sets of one family.
func (c counters) sumPrefix(prefix string) float64 {
	s := 0.0
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// Linux clock ids for clock_gettime.
const (
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

// processCPU is the user+system CPU time this process has consumed.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time of the calling OS thread; the caller must
// hold runtime.LockOSThread for deltas to mean anything.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno)) // only a wrong constant can fail here
	}
	return time.Duration(ts.Nano())
}

// gcCPU is the CPU time the runtime attributes to garbage collection.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// usage is a point-in-time reading of what the process has spent.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	gc      float64
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{wall: time.Now(), cpu: processCPU(), gc: gcCPU(), mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

// liveHeapMB forces a collection and reads what survived it.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
