package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/pubsub"
	"taxilight/internal/roadnet"
)

// The push read path (/v1/watch): instead of polling /v1/state, a client
// subscribes to a set of (light, approach) keys and the server streams
// an SSE event whenever a key's estimate version moves — the delta of
// each estimation round, fanned out by the pubsub hub. Every event's id
// is the shard-version-vector tag (the same machinery as the snapshot
// ETag), so a reconnecting client sends it back as Last-Event-ID and the
// server can skip the catch-up when nothing changed while it was away.

// parseApproach maps the wire form ("NS"/"EW", case-insensitive) to an
// approach.
func parseApproach(s string) (lights.Approach, error) {
	switch strings.ToUpper(s) {
	case "NS":
		return lights.NorthSouth, nil
	case "EW":
		return lights.EastWest, nil
	}
	return 0, fmt.Errorf("bad approach %q (want NS or EW)", s)
}

// ParseWatchKeys parses the /v1/watch keys parameter: comma-separated
// `<light>:<NS|EW>` entries, e.g. `keys=7:NS,7:EW,12:NS`. Duplicates
// are collapsed. Exported for the cluster router, which must resolve
// key ownership before deciding where a watch may run.
func ParseWatchKeys(q string) ([]mapmatch.Key, error) {
	if q == "" {
		return nil, fmt.Errorf("missing keys parameter (want keys=<light>:<NS|EW>[,...])")
	}
	parts := strings.Split(q, ",")
	keys := make([]mapmatch.Key, 0, len(parts))
	seen := make(map[mapmatch.Key]struct{}, len(parts))
	for _, part := range parts {
		light, app, found := strings.Cut(strings.TrimSpace(part), ":")
		if !found {
			return nil, fmt.Errorf("bad key %q (want <light>:<NS|EW>)", part)
		}
		id, err := strconv.ParseInt(light, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad light id %q", light)
		}
		a, err := parseApproach(app)
		if err != nil {
			return nil, err
		}
		k := mapmatch.Key{Light: roadnet.NodeID(id), Approach: a}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys, nil
}

// watchID is the SSE event id: the version-vector fingerprint the
// snapshot ETag carries too. Equal ids mean no engine published in
// between, so a resume carrying the current id skips catch-up entirely.
func (s *Server) watchID() string {
	return fmt.Sprintf("%016x", fingerprint(s.engineVersions()))
}

// EvictMovedWatchers cuts loose every /v1/watch subscriber holding at
// least one key the moved predicate accepts, counted under eviction
// reason "moved". The cluster layer calls it when an ownership change
// strands subscriptions pinned to this node at connect time: the
// stream would keep serving answers the ring no longer routes here, so
// the client is kicked to reconnect and get 307'd to the new owner
// (Last-Event-ID makes the hop lossless). It returns how many
// subscribers were evicted.
func (s *Server) EvictMovedWatchers(moved func(mapmatch.Key) bool) int {
	return s.hub.EvictWhere(pubsub.EvictMoved, func(keys []mapmatch.Key) bool {
		for _, k := range keys {
			if moved(k) {
				return true
			}
		}
		return false
	})
}

// handleWatch serves GET /v1/watch?keys=...: an SSE stream of estimate
// deltas for the subscribed keys. The handler is registered exempt from
// the in-flight limiter (streams are long-lived; the hub's subscriber
// cap is the relevant guard) and never instrumented into the request
// latency histogram (a stream's "latency" is its lifetime).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	keys, err := ParseWatchKeys(r.URL.Query().Get("keys"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	sub, err := s.hub.Subscribe(keys)
	switch err {
	case nil:
	case pubsub.ErrSubscriberLimit:
		s.met.watchShed.Add(1)
		// Same jittered shed as the in-flight limiter: a full hub says
		// "busy", and the fleet must not retry in lockstep.
		w.Header().Set("Retry-After", strconv.Itoa(1+rand.Intn(3)))
		WriteError(w, http.StatusTooManyRequests, "subscriber limit reached, retry later")
		return
	case pubsub.ErrTooManyKeys:
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("too many keys (limit %d)", s.cfg.MaxWatchKeys))
		return
	default:
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer s.hub.Unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	// Catch-up: a fresh subscriber (or one whose Last-Event-ID no longer
	// matches the current version vector) first receives the current
	// estimate of every watched key, so it never waits a full estimation
	// round for its first countdown. Matching ids mean nothing changed
	// while the client was away — skip straight to live deltas.
	id := s.watchID()
	if r.Header.Get("Last-Event-ID") != id {
		buf := pubsub.GetBuffer()
		for _, k := range keys {
			sh := s.shardFor(k)
			est, ok := sh.engine.EstimateFor(k)
			if !ok {
				continue
			}
			ev := pubsub.Event{
				Key:     k,
				Est:     est,
				Health:  s.overrideHealth(k, est.Health.String()),
				Version: sh.engine.Version(),
			}
			*buf = pubsub.AppendEventFrame((*buf)[:0], id, k, sh.engine.Now(), ev)
			if err := s.writeWatchFrame(w, rc, sub, *buf, 0); err != nil {
				pubsub.PutBuffer(buf)
				return
			}
		}
		pubsub.PutBuffer(buf)
	}
	if err := rc.Flush(); err != nil {
		return
	}

	tick := time.NewTicker(watchHeartbeat)
	defer tick.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-sub.Kicked():
			// Evicted by the hub (queue overflow) or a concurrent write
			// failure; the eviction is already counted by reason.
			return
		case f := <-sub.Frames():
			err := s.writeWatchFrame(w, rc, sub, f.Bytes(), f.PubNanos)
			if err == nil {
				err = rc.Flush()
			}
			f.Release()
			if err != nil {
				sub.Evict(pubsub.EvictDeadline)
				return
			}
			s.met.watchEventsWritten.Add(1)
		case <-tick.C:
			if err := s.writeWatchFrame(w, rc, sub, heartbeatFrame, 0); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				sub.Evict(pubsub.EvictDeadline)
				return
			}
		}
	}
}

// heartbeatFrame is the SSE comment written on idle streams.
var heartbeatFrame = []byte(": hb\n\n")

// writeWatchFrame writes one frame under the watch write deadline
// (renewed per write — the server-level WriteTimeout would kill any
// long-lived stream). A write that misses the deadline evicts the
// subscriber: a round's publish never waits for a stalled socket, and
// neither may the serving goroutine, beyond this bound. pubNanos, when
// non-zero, stamps the publish-to-write latency histogram.
func (s *Server) writeWatchFrame(w http.ResponseWriter, rc *http.ResponseController, sub *pubsub.Subscriber, frame []byte, pubNanos int64) error {
	if d := s.cfg.WatchWriteTimeout; d > 0 {
		if err := rc.SetWriteDeadline(time.Now().Add(d)); err != nil {
			sub.Evict(pubsub.EvictDeadline)
			return err
		}
	}
	if _, err := w.Write(frame); err != nil {
		sub.Evict(pubsub.EvictDeadline)
		return err
	}
	if pubNanos > 0 {
		s.met.watchPublishToWrite.Observe(float64(time.Now().UnixNano()-pubNanos) / 1e9)
	}
	return nil
}
