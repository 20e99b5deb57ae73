// Command lightd is the realtime serving daemon: it ingests a live
// Table-I taxi feed (stdin, file replay or TCP push), shards it across N
// streaming identification engines, and answers driver-facing queries
// over HTTP — the end product the paper sketches in §V.
//
// Endpoints:
//
//	GET /v1/state/{light}/{approach}   current phase + countdown ("red, 12 s to green")
//	GET /v1/watch?keys=7:NS,...        SSE push: estimate deltas as rounds publish
//	GET /v1/snapshot                   every approach, cached, ETag-revalidated
//	GET /v1/route?src=&dst=&depart=    light-aware route over live predictions
//	GET /healthz                       200 while any estimate is fresh, else 503
//	GET /metrics                       Prometheus text format
//
// The road network comes from a tracegen -network file, an OSM extract,
// or the synthetic grid parameters the trace was generated with.
//
// Usage:
//
//	tracegen -stream -speedup 60 | lightd -in - -rows 4 -cols 4 -seed 1
//	lightd -in trace.csv.gz -network net.txt -listen :8080
//	lightd -in tcp://:7001              # accept push feeds
//	lightd -in "east=tcp+dial://feed-e:7001,west=tcp+dial://feed-w:7001"
//	lightd -node-id a -cluster-peers "a=http://:8080,b=http://:8081,c=http://:8082" \
//	       -store-dir /var/lib/lightd-a   # one member of a 3-node cluster
//
// Every source runs supervised: dial-out sources reconnect with
// exponential backoff and dedup the replay (no double-ingest), listen
// sources survive transient Accept errors, and a per-source circuit
// breaker cools down dead upstreams. /healthz and /metrics show each
// source's state machine.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"taxilight/internal/cluster"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
	"taxilight/internal/routesvc"
	"taxilight/internal/server"
	"taxilight/internal/store"
	"taxilight/internal/trace"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	in := flag.String("in", "-", `comma-separated trace sources, each optionally "name=" prefixed: "-" (stdin), "tcp://addr" (listen for push feeds), "tcp+dial://addr" (dial out, reconnect + dedup), or a file path (.gz-aware)`)
	rows := flag.Int("rows", 4, "grid rows of the generating network")
	cols := flag.Int("cols", 4, "grid columns of the generating network")
	seed := flag.Int64("seed", 1, "seed of the generating network")
	netFile := flag.String("network", "", "network file written by tracegen -network (preferred over -rows/-cols/-seed)")
	osmFile := flag.String("osm", "", "OpenStreetMap XML extract to use as the road network")
	shards := flag.Int("shards", 0, "engine shards (0 = default)")
	roundWorkers := flag.Int("round-workers", 0, "worker goroutines per estimation round (0 = GOMAXPROCS)")
	window := flag.Float64("window", 1800, "trailing estimation window, seconds")
	interval := flag.Float64("interval", 300, "re-estimation interval, seconds")
	maxBadFrac := flag.Float64("max-bad-frac", 0.05, "abort a source once this fraction of its lines is malformed")
	readTimeout := flag.Duration("read-timeout", 5*time.Second, "HTTP read timeout")
	writeTimeout := flag.Duration("write-timeout", 10*time.Second, "HTTP write timeout")
	grace := flag.Duration("shutdown-grace", 5*time.Second, "graceful shutdown budget for in-flight requests")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "ingest drain budget at shutdown before giving up (0 = wait forever)")
	maxInflight := flag.Int("max-inflight", server.DefaultConfig().MaxInFlight, "max concurrently served HTTP requests before shedding 429s; 0 disables the limiter")
	maxSubscribers := flag.Int("max-subscribers", server.DefaultConfig().MaxSubscribers, "max concurrent /v1/watch subscriptions before shedding 429s; 0 = unlimited")
	maxWatchKeys := flag.Int("max-watch-keys", server.DefaultConfig().MaxWatchKeys, "max keys on a single /v1/watch subscription")
	debugEndpoints := flag.Bool("debug-endpoints", false, "register /debug/* drill handlers (panic, block)")
	reconnectMin := flag.Duration("reconnect-min", 0, "initial dial-source reconnect backoff (0 = default)")
	reconnectMax := flag.Duration("reconnect-max", 0, "reconnect backoff cap (0 = default)")
	failureBudget := flag.Int("failure-budget", -1, "consecutive source failures before the circuit breaker opens; 0 disables, -1 = default")
	circuitCooldown := flag.Duration("circuit-cooldown", 0, "open-circuit rest before retrying a source (0 = default)")
	storeDir := flag.String("store-dir", "", "durable estimate store directory; empty disables persistence")
	ckptEvery := flag.Duration("checkpoint-interval", time.Minute, "how often to checkpoint engine state into the store")
	retention := flag.Duration("retention", 0, "drop WAL segments older than this stream age (0 keeps all ages)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "drop oldest WAL segments while the store exceeds this size (0 = no cap)")
	nodeID := flag.String("node-id", "", "this node's name in a lightd cluster; empty runs single-node")
	clusterPeers := flag.String("cluster-peers", "", `seed members as "id=http://host:port,..." including this node; requires -node-id and -store-dir`)
	replication := flag.Int("replication", 2, "cluster replication factor (primary included)")
	heartbeat := flag.Duration("heartbeat-interval", 500*time.Millisecond, "cluster gossip cadence; a peer silent for 4x this is declared dead")
	join := flag.Bool("join", false, "start as a joining cluster member: bulk-pull the key slice this node will own, then cut over to serving")
	rebalanceRate := flag.Int64("rebalance-rate", 0, "bytes/second budget for bulk rebalance transfers served by this node (join handoff, replica re-priming); 0 = unthrottled")
	flag.Parse()

	// Fail fast on nonsense flags: a mistyped shard count or bad-line
	// budget should be a clear startup error, not a crash or a silently
	// absurd config minutes into a run.
	if *shards < 0 {
		fatal(fmt.Errorf("-shards must be >= 0 (0 means default), got %d", *shards))
	}
	if *roundWorkers < 0 {
		fatal(fmt.Errorf("-round-workers must be >= 0 (0 means GOMAXPROCS), got %d", *roundWorkers))
	}
	if *maxBadFrac < 0 || *maxBadFrac > 1 {
		fatal(fmt.Errorf("-max-bad-frac must be within [0, 1], got %g", *maxBadFrac))
	}

	net, err := loadNetwork(*netFile, *osmFile, *rows, *cols, *seed)
	if err != nil {
		fatal(err)
	}
	matcher, err := mapmatch.New(net, trace.Epoch, mapmatch.DefaultConfig())
	if err != nil {
		fatal(err)
	}

	cfg := server.DefaultConfig()
	if *shards > 0 {
		cfg.Shards = *shards
	}
	cfg.Realtime.Window = *window
	cfg.Realtime.Interval = *interval
	cfg.Realtime.Pipeline.Workers = *roundWorkers
	cfg.Lenient.MaxBadFraction = *maxBadFrac
	cfg.ReadTimeout = *readTimeout
	cfg.WriteTimeout = *writeTimeout
	cfg.ShutdownGrace = *grace
	cfg.CheckpointInterval = *ckptEvery
	if *maxInflight < 0 {
		fatal(fmt.Errorf("-max-inflight must be >= 0, got %d", *maxInflight))
	}
	cfg.MaxInFlight = *maxInflight
	if *maxSubscribers < 0 {
		fatal(fmt.Errorf("-max-subscribers must be >= 0, got %d", *maxSubscribers))
	}
	cfg.MaxSubscribers = *maxSubscribers
	if *maxWatchKeys < 0 {
		fatal(fmt.Errorf("-max-watch-keys must be >= 0, got %d", *maxWatchKeys))
	}
	cfg.MaxWatchKeys = *maxWatchKeys
	cfg.DebugEndpoints = *debugEndpoints
	if *reconnectMin > 0 {
		cfg.Ingest.BackoffMin = *reconnectMin
	}
	if *reconnectMax > 0 {
		cfg.Ingest.BackoffMax = *reconnectMax
	}
	if *failureBudget >= 0 {
		cfg.Ingest.FailureBudget = *failureBudget
	}
	if *circuitCooldown > 0 {
		cfg.Ingest.CircuitCooldown = *circuitCooldown
	}

	// The durable store opens before the server so recovery (checkpoint
	// load, WAL tail replay, torn-tail truncation) happens while nothing
	// is being served yet.
	var st *store.Store
	if *storeDir != "" {
		scfg := store.DefaultConfig()
		scfg.RetentionAge = retention.Seconds()
		scfg.RetentionBytes = *storeMaxBytes
		st, err = store.Open(*storeDir, scfg)
		if err != nil {
			fatal(fmt.Errorf("store: %w", err))
		}
		cfg.Store = st
	}

	srv, err := server.New(matcher, cfg)
	if err != nil {
		fatal(err)
	}

	// Cluster mode: the node must be built before srv.Start — it installs
	// the ingest-filter and health hooks — and needs the store, because
	// replication ships WAL segments.
	var node *cluster.Node
	if *nodeID != "" || *clusterPeers != "" {
		if *nodeID == "" || *clusterPeers == "" {
			fatal(fmt.Errorf("cluster mode needs both -node-id and -cluster-peers"))
		}
		if st == nil {
			fatal(fmt.Errorf("cluster mode needs -store-dir: replication ships WAL segments"))
		}
		peers, err := parsePeers(*clusterPeers)
		if err != nil {
			fatal(err)
		}
		node, err = cluster.NewNode(srv, st, cluster.Config{
			NodeID:               *nodeID,
			Peers:                peers,
			ReplicationFactor:    *replication,
			HeartbeatInterval:    *heartbeat,
			Join:                 *join,
			RebalanceBytesPerSec: *rebalanceRate,
		})
		if err != nil {
			fatal(err)
		}
	}

	if st != nil {
		recovered, replayed := st.RecoveredState()
		if n := srv.Restore(recovered); n > 0 {
			fmt.Fprintf(os.Stderr, "lightd: warm start: %d approaches restored from %s (%d replayed from the WAL tail, stream clock %.0f s)\n",
				n, st.Dir(), replayed, recovered.Now)
		}
	}

	// Light-aware routing over the loaded network. In cluster mode the
	// prediction source resolves lights owned by peers through bulk
	// snapshot fetches; single-node it reads the local engines directly.
	routePredictions := srv.RoutePredictions()
	if node != nil {
		routePredictions = node.RoutePredictions()
	}
	rs, err := routesvc.New(net, routePredictions)
	if err != nil {
		fatal(err)
	}
	srv.SetRouteService(rs)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// First SIGINT/SIGTERM starts the graceful drain; a second one
	// force-exits immediately — an operator mashing ctrl-C must never be
	// left watching a hung drain.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "lightd: %v: draining (signal again to force exit)\n", sig)
		cancel()
		sig = <-sigCh
		fmt.Fprintf(os.Stderr, "lightd: second %v: forcing exit without draining\n", sig)
		os.Exit(130)
	}()

	srv.Start()
	if node != nil {
		node.Start()
		fmt.Fprintf(os.Stderr, "lightd: cluster node %q, %d seed members, replication %d\n",
			*nodeID, len(strings.Split(*clusterPeers, ",")), *replication)
	}
	fmt.Fprintf(os.Stderr, "lightd: %d shards, network %d nodes / %d segments, serving on %s, ingesting %s\n",
		cfg.Shards, net.NumNodes(), net.NumSegments(), *listen, *in)

	srcDone := make(chan error, 1)
	go func() { srcDone <- srv.RunSources(ctx, *in) }()
	go func() {
		// A finished replay (nil) leaves the daemon serving its last
		// estimates; a failed source (budget blown, unreadable file) is
		// surfaced but non-fatal for the same reason — /healthz reports
		// the degradation.
		if err := <-srcDone; err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "lightd: source:", err)
		}
	}()

	serveErr := error(nil)
	if node != nil {
		serveErr = srv.ServeHandler(ctx, *listen, node.Handler())
	} else {
		serveErr = srv.ListenAndServe(ctx, *listen)
	}
	if serveErr != nil && ctx.Err() == nil {
		fatal(serveErr)
	}

	// Graceful shutdown: the HTTP side is already drained; now drain the
	// ingest side — bounded by -drain-timeout so a wedged source can only
	// delay exit, not prevent it — and flush the final accounting.
	cancel()
	if node != nil {
		// Announce departure so peers promote immediately instead of
		// waiting out the failure detector, then stop the loops.
		node.Leave()
		node.Stop()
	}
	drained := make(chan struct{})
	go func() {
		srv.StopIngest()
		close(drained)
	}()
	if *drainTimeout > 0 {
		select {
		case <-drained:
		case <-time.After(*drainTimeout):
			fmt.Fprintf(os.Stderr, "lightd: drain exceeded %v; exiting without a clean drain\n", *drainTimeout)
			os.Exit(1)
		}
	} else {
		<-drained
	}
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lightd: store close:", err)
		}
	}
	fmt.Fprintln(os.Stderr, "lightd: drained; final counters:")
	fmt.Fprintln(os.Stderr, srv.Summary())
}

// loadNetwork mirrors lightid's network resolution: explicit network
// file, then OSM extract, then the synthetic grid parameters.
func loadNetwork(netFile, osmFile string, rows, cols int, seed int64) (*roadnet.Network, error) {
	if netFile != "" {
		nf, err := os.Open(netFile)
		if err != nil {
			return nil, err
		}
		net, err := roadnet.ReadNetwork(nf)
		if cerr := nf.Close(); err == nil {
			err = cerr
		}
		return net, err
	}
	if osmFile != "" {
		mf, err := os.Open(osmFile)
		if err != nil {
			return nil, err
		}
		net, err := roadnet.ImportOSM(mf, roadnet.DefaultOSMConfig())
		if cerr := mf.Close(); err == nil {
			err = cerr
		}
		return net, err
	}
	gcfg := roadnet.DefaultGridConfig()
	gcfg.Rows, gcfg.Cols = rows, cols
	gcfg.Seed = seed
	gcfg.CycleMin, gcfg.CycleMax = 80, 140
	return roadnet.GenerateGrid(gcfg)
}

// parsePeers parses the -cluster-peers "id=url,id=url" seed list.
func parsePeers(spec string) (map[string]string, error) {
	peers := map[string]string{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf(`-cluster-peers entry %q: want "id=http://host:port"`, part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("-cluster-peers repeats node id %q", id)
		}
		peers[id] = strings.TrimSuffix(url, "/")
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-cluster-peers is empty")
	}
	return peers, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lightd:", err)
	os.Exit(1)
}
