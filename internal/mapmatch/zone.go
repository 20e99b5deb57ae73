package mapmatch

import (
	"taxilight/internal/geo"
	"taxilight/internal/roadnet"
)

// zoneCell is the mask's pitch in metres: half the road index's, fine
// enough that the margin around a 120 m match corridor stays thin. At one
// byte a cell the mask is a twelfth of what that index already holds for
// the same box.
const zoneCell = 125.0

// zoneMask is a coarse boolean grid over the network box that marks where
// a report can match anything at all. On a city feed most reports are
// nowhere near a light, and say so here in one lookup rather than in two
// ring scans of the road index. Its contract is one line: it rejects
// earlier, never differently.
type zoneMask struct {
	minX, minY float64
	nx, ny     int
	marked     []bool
}

// buildZoneMask marks every cell from which MatchWithStats could accept a
// report. Why an unmarked cell is safe to reject without asking Snap:
//
// Padded tail box ⊇ acceptance region. Either Snap call accepts a segment
// s only if s.To is signalised (the cheap filter, with or without the
// heading rule), the closest point p of s to the query point q passes
// nearLight — (1-frac)·length ≤ MaxLightDist, so p lies on the tail of s,
// the stretch from fraction 1 − MaxLightDist/length (or 0) to the stop
// line — and |p − q| ≤ MaxMatchDist. A segment is straight, so the tail is
// too and lies inside the box of its two ends; q is within MaxMatchDist of
// a point of that box, hence inside the box padded by MaxMatchDist. The
// heading rule and the stopped-vehicle fallback only narrow which segments
// are asked, never this geometry, so one mask serves both calls, and a
// marked cell runs them unchanged: candidate order and every distance tie
// stay Snap's.
//
// Cells. cellOf is monotone in each coordinate — subtracting a constant,
// dividing by a positive one, clamping and truncating all are, in floating
// point as on paper — so a q between a padded box's corners falls in a
// cell between the corners' cells, all of which are marked. There is no
// rounding to cover in the lookup itself.
//
// Clamping. The mask spans the node box padded as the tails are, which
// contains every padded tail box. A q outside it is therefore in none of
// them and may be rejected; clamping sends it to an edge cell, which is
// either unmarked (rejected, rightly) or marked (Snap decides, as before).
//
// The extra metre. q is the projected point handed to Snap, bit for bit,
// so neither the projection nor the tape's six-decimal coordinates can
// come between the mask and Snap. What can is rounding inside Snap's own
// arithmetic against the tail end computed here: frac, the nearLight
// product, p and the norm each carry a relative error near 1e-16, which at
// coordinates below 1e7 m is under a nanometre. One metre is slack to
// spare, and widens the marked area by less than a hundredth of a cell.
func buildZoneMask(net *roadnet.Network, cfg Config) zoneMask {
	pad := cfg.MaxMatchDist + 1
	bb := net.BBox().Pad(pad)
	z := zoneMask{
		minX: bb.MinX, minY: bb.MinY,
		nx: int(bb.Width()/zoneCell) + 1, ny: int(bb.Height()/zoneCell) + 1,
	}
	z.marked = make([]bool, z.nx*z.ny)
	for _, s := range net.Segments() {
		if !net.Node(s.To).Signalised() {
			continue
		}
		tail := s.Geom().A
		if l := s.Length(); l > cfg.MaxLightDist {
			tail = s.PointAt(1 - cfg.MaxLightDist/l)
		}
		tb := geo.NewBBox(tail, s.Geom().B).Pad(pad)
		x0, y0 := z.cellOf(geo.XY{X: tb.MinX, Y: tb.MinY})
		x1, y1 := z.cellOf(geo.XY{X: tb.MaxX, Y: tb.MaxY})
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				z.marked[cy*z.nx+cx] = true
			}
		}
	}
	return z
}

// cellOf returns the cell holding p, the nearest edge cell when p is off
// the mask.
func (z *zoneMask) cellOf(p geo.XY) (cx, cy int) {
	return clampCell((p.X-z.minX)/zoneCell, z.nx), clampCell((p.Y-z.minY)/zoneCell, z.ny)
}

func clampCell(f float64, n int) int {
	switch {
	case !(f > 0): // NaN too
		return 0
	case f >= float64(n):
		return n - 1
	}
	return int(f)
}

// canMatch reports whether q lies where some segment could accept it.
func (z *zoneMask) canMatch(q geo.XY) bool {
	cx, cy := z.cellOf(q)
	return z.marked[cy*z.nx+cx]
}
