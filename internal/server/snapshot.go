package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"strings"
	"sync"

	"taxilight/internal/core"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

// approachJSON is one approach in the /v1/snapshot (and /v1/state) body.
type approachJSON struct {
	Light    int64   `json:"light"`
	Approach string  `json:"approach"`
	Cycle    float64 `json:"cycle_s"`
	Red      float64 `json:"red_s"`
	Green    float64 `json:"green_s"`
	// GreenToRed is the green→red change time as a phase within
	// [0, cycle), measured from window_start — with window_start it
	// anchors the schedule on the stream time axis.
	GreenToRed  float64 `json:"green_to_red_phase_s"`
	WindowStart float64 `json:"window_start_s"`
	WindowEnd   float64 `json:"window_end_s"`
	Quality     float64 `json:"quality"`
	Records     int     `json:"records"`
	AgeSeconds  float64 `json:"age_s"`
	Health      string  `json:"health"`
}

// Key returns the partition key the entry describes. An approach the
// API's parser refuses (anything but NS or EW) is an error: the entry
// names no key.
func (a approachJSON) Key() (mapmatch.Key, error) {
	app, err := parseApproach(a.Approach)
	return mapmatch.Key{Light: roadnet.NodeID(a.Light), Approach: app}, err
}

// snapshotJSON is the /v1/snapshot body: every published approach across
// all shards, sorted by (light, approach) for stable output.
type snapshotJSON struct {
	// Now is the newest shard stream clock, seconds.
	Now        float64        `json:"now_s"`
	Approaches []approachJSON `json:"approaches"`
}

// renderedSnapshot is one /v1/snapshot answer ready to serve: the
// document, its encoded body, its ETag and the worst health across its
// approaches (the health header). It is not modified once built.
type renderedSnapshot struct {
	doc   snapshotJSON
	body  []byte
	etag  string
	worst string
}

// snapshotCache holds the rendered /v1/snapshot answer together with
// the per-shard engine versions it reflects. Engine versions only move
// when an estimation pass publishes or a prime lands, so the full map
// copy + render runs at most once per publish however many requests
// arrive in between — every other request is a version compare
// plus a cached-bytes write, and If-None-Match requests collapse to a
// 304 with no body at all.
type snapshotCache struct {
	mu       sync.Mutex
	versions []uint64
	cur      *renderedSnapshot
}

// healthRank orders health labels for the snapshot's worst-across-keys
// header; unknown labels rank worst.
func healthRank(h string) int {
	switch h {
	case "", "fresh":
		return 0
	case "stale":
		return 1
	case "quarantined":
		return 2
	}
	return 3
}

// snapshot returns the current rendered answer, rebuilding it only when
// some shard's engine version moved since the cached copy.
func (s *Server) snapshot() *renderedSnapshot {
	cur := s.engineVersions()
	s.snap.mu.Lock()
	defer s.snap.mu.Unlock()
	if s.snap.cur != nil && slices.Equal(s.snap.versions, cur) {
		return s.snap.cur
	}
	doc := snapshotJSON{Approaches: []approachJSON{}}
	for i, sh := range s.shards {
		snap, v := sh.engine.SnapshotVersioned()
		cur[i] = v
		doc.Now = max(doc.Now, sh.engine.Now())
		for k, est := range snap {
			aj := approachFromEstimate(k, est)
			aj.Health = s.overrideHealth(k, aj.Health)
			doc.Approaches = append(doc.Approaches, aj)
			s.met.estimateAge.Observe(est.Age)
		}
	}
	SortApproaches(doc.Approaches)
	rs := renderSnapshot(doc)
	rs.etag = fmt.Sprintf(`"%d-%016x"`, len(doc.Approaches), fingerprint(cur))
	s.snap.versions = cur
	s.snap.cur = rs
	return rs
}

// renderSnapshot encodes doc and ranks its health; the caller sets the
// ETag.
func renderSnapshot(doc snapshotJSON) *renderedSnapshot {
	body, err := json.Marshal(doc)
	if err != nil {
		// The document is plain data; marshalling cannot fail. Keep the
		// invariant visible rather than silently serving stale bytes.
		panic(fmt.Sprintf("server: snapshot marshal: %v", err))
	}
	worst := "stale" // nothing published yet: the empty answer is best-effort
	if len(doc.Approaches) > 0 {
		worst = ""
		for _, aj := range doc.Approaches {
			if healthRank(aj.Health) > healthRank(worst) {
				worst = aj.Health
			}
		}
	}
	return &renderedSnapshot{doc: doc, body: body, worst: worst}
}

// write answers one /v1/snapshot request: the worst-health header, the
// ETag, and then a bodiless 304 when If-None-Match already holds the
// tag, else the body.
func (rs *renderedSnapshot) write(w http.ResponseWriter, r *http.Request) {
	setHealthHeader(w, rs.worst)
	w.Header().Set("ETag", rs.etag)
	w.Header().Set("Cache-Control", "no-cache")
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, rs.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.Write(rs.body)
}

// handleSnapshot serves the cached whole-city snapshot with ETag
// revalidation: a request carrying the current tag costs a version
// compare and a 304. The health header carries the worst health across
// the returned keys, so a fleet-polling client sees degradation without
// parsing every approach.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.snapshot().write(w, r)
}

// WriteSnapshot answers /v1/snapshot with a document built outside the
// server's cache — the cluster's merged city view — exactly as
// handleSnapshot answers with its own. No version vector stands behind
// such a document, so its ETag fingerprints the body.
func WriteSnapshot(w http.ResponseWriter, r *http.Request, doc SnapshotDoc) {
	rs := renderSnapshot(doc)
	h := fnv.New64a()
	h.Write(rs.body)
	rs.etag = fmt.Sprintf(`"m%d-%016x"`, len(doc.Approaches), h.Sum64())
	rs.write(w, r)
}

// etagMatches implements the If-None-Match comparison (weak comparison,
// including the `*` wildcard).
func etagMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(part), "W/") == etag {
			return true
		}
	}
	return false
}

// SortApproaches puts snapshot entries in the one order every snapshot
// body uses: by light, then by approach name.
func SortApproaches(a []SnapshotApproach) {
	slices.SortFunc(a, func(x, y SnapshotApproach) int {
		if c := cmp.Compare(x.Light, y.Light); c != 0 {
			return c
		}
		return strings.Compare(x.Approach, y.Approach)
	})
}

// SnapshotApproach and SnapshotDoc expose the snapshot wire format to
// the cluster layer, which merges per-node snapshot documents for the
// scatter-gather /v1/snapshot.
type (
	SnapshotApproach = approachJSON
	SnapshotDoc      = snapshotJSON
)

// SnapshotBytes returns the cached /v1/snapshot body, its ETag and the
// worst health across the rendered approaches.
func (s *Server) SnapshotBytes() (etag string, body []byte, worst string) {
	rs := s.snapshot()
	return rs.etag, rs.body, rs.worst
}

// Snapshot returns the cached /v1/snapshot document as a value. Its
// Approaches are shared with the cache: callers read them and must not
// write through them.
func (s *Server) Snapshot() SnapshotDoc { return s.snapshot().doc }

// ApproachFromEstimate renders one estimate in the snapshot wire format.
func ApproachFromEstimate(k mapmatch.Key, est core.Estimate) SnapshotApproach {
	return approachFromEstimate(k, est)
}

// approachFromEstimate renders one engine estimate for the API.
func approachFromEstimate(k mapmatch.Key, est core.Estimate) approachJSON {
	return approachJSON{
		Light:       int64(k.Light),
		Approach:    k.Approach.String(),
		Cycle:       est.Cycle,
		Red:         est.Red,
		Green:       est.Green,
		GreenToRed:  est.GreenToRedPhase,
		WindowStart: est.WindowStart,
		WindowEnd:   est.WindowEnd,
		Quality:     est.Quality,
		Records:     est.Records,
		AgeSeconds:  est.Age,
		Health:      est.Health.String(),
	}
}

// engineVersions reads every shard engine's version, in shard order.
func (s *Server) engineVersions() []uint64 {
	vs := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		vs[i] = sh.engine.Version()
	}
	return vs
}

// fingerprint is an FNV-64a hash of a shard version vector: equal
// vectors mean no engine published in between. The snapshot ETag and
// the /v1/watch event id are both built on it.
func fingerprint(versions []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range versions {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
