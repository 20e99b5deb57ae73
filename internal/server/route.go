package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"taxilight/internal/roadnet"
	"taxilight/internal/routesvc"
)

// routeJSON is the /v1/route body: the planned route with its predicted
// timeline and the serving condition it was computed under.
type routeJSON struct {
	Src    int64   `json:"src"`
	Dst    int64   `json:"dst"`
	Depart float64 `json:"depart_s"`
	Arrive float64 `json:"arrive_s"`
	// Duration is the predicted travel time including red waits.
	Duration float64 `json:"duration_s"`
	// DistanceMeters is the driven distance.
	DistanceMeters float64 `json:"distance_m"`
	// Mode is "aware" (light-aware over live predictions) or "freeflow"
	// (the shortest-time baseline, blind to lights).
	Mode string `json:"mode"`
	// Degraded is true when any intersection on the route lacked a fresh
	// estimate and was traversed on free-flow fallback; the realised time
	// may then exceed duration_s.
	Degraded bool `json:"degraded,omitempty"`
	// Expanded counts settled search nodes (the query's work).
	Expanded int         `json:"expanded_nodes"`
	Nodes    []int64     `json:"nodes"`
	Legs     []routeLegJ `json:"legs"`
}

// routeLegJ is one driven segment in the route body.
type routeLegJ struct {
	Segment  int64   `json:"segment"`
	From     int64   `json:"from"`
	To       int64   `json:"to"`
	Enter    float64 `json:"enter_s"`
	Drive    float64 `json:"drive_s"`
	Wait     float64 `json:"wait_s,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
}

// handleRoute serves GET /v1/route?src=&dst=&depart=&mode=: a route over
// the loaded road network weighted by live phase predictions. Missing or
// non-fresh estimates degrade the affected edges to free-flow — the
// endpoint never 500s for lack of data — and the degraded condition is
// surfaced in the body and the health header.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	rs := s.route.Load()
	if rs == nil {
		WriteError(w, http.StatusServiceUnavailable, "routing unavailable: no road network loaded (run lightd with -net or -grid)")
		return
	}
	q := r.URL.Query()
	src, err := parseRouteNode(q.Get("src"), "src")
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	dst, err := parseRouteNode(q.Get("dst"), "dst")
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	depart := rs.Now()
	if v := q.Get("depart"); v != "" {
		if depart, err = ParseStreamTime("depart", v); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	freeFlow := false
	switch mode := q.Get("mode"); mode {
	case "", "aware":
	case "freeflow":
		freeFlow = true
	default:
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad mode %q (want aware or freeflow)", mode))
		return
	}
	res, err := rs.Plan(src, dst, depart, freeFlow)
	switch {
	case errors.Is(err, routesvc.ErrNodeRange):
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	case errors.Is(err, routesvc.ErrUnreachable):
		WriteError(w, http.StatusNotFound, err.Error())
		return
	case err != nil:
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if res.Degraded {
		setHealthHeader(w, "degraded")
	}
	mode := "aware"
	if freeFlow {
		mode = "freeflow"
	}
	doc := routeJSON{
		Src:      int64(src),
		Dst:      int64(dst),
		Depart:   res.Depart,
		Arrive:   res.Arrive,
		Duration: res.Route.Cost,
		Mode:     mode,
		Degraded: res.Degraded,
		Expanded: res.Expanded,
		Nodes:    make([]int64, 1+len(res.Legs)),
		Legs:     make([]routeLegJ, len(res.Legs)),
	}
	doc.Nodes[0] = int64(src)
	for i, leg := range res.Legs {
		doc.DistanceMeters += rs.SegmentLength(leg.Seg)
		doc.Nodes[i+1] = int64(leg.To)
		doc.Legs[i] = routeLegJ{
			Segment:  int64(leg.Seg),
			From:     int64(leg.From),
			To:       int64(leg.To),
			Enter:    leg.Enter,
			Drive:    leg.Drive,
			Wait:     leg.Wait,
			Degraded: leg.Degraded,
		}
	}
	WriteJSON(w, http.StatusOK, doc)
}

// parseRouteNode parses a required node-id query parameter.
func parseRouteNode(v, name string) (roadnet.NodeID, error) {
	if v == "" {
		return 0, fmt.Errorf("missing %s node id", name)
	}
	id, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return roadnet.NodeID(id), nil
}
