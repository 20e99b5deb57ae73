package experiments

import (
	"testing"

	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

func smallMegacityConfig() MegacityConfig {
	return MegacityConfig{
		Districts:        3,
		Rows:             3,
		Cols:             3,
		TaxisPerDistrict: 40,
		Seed:             11,
	}
}

func TestBuildMegacityShape(t *testing.T) {
	m, err := BuildMegacity(smallMegacityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Lights != 27 {
		t.Fatalf("lights = %d, want 27", m.Lights)
	}
	if got := len(m.Net.SignalisedNodes()); got != 27 {
		t.Fatalf("merged network has %d lights, want 27", got)
	}

	// Light IDs globally unique; district node ranges disjoint and dense.
	lightIDs := map[int]bool{}
	for _, nd := range m.Net.SignalisedNodes() {
		if lightIDs[nd.Light.ID] {
			t.Fatalf("duplicate light ID %d", nd.Light.ID)
		}
		lightIDs[nd.Light.ID] = true
	}
	nodesPer := m.Districts[0].Net.NumNodes()
	for i, d := range m.Districts {
		if int(d.NodeOffset) != i*nodesPer {
			t.Fatalf("district %d NodeOffset = %d, want %d", i, d.NodeOffset, i*nodesPer)
		}
		// District-local node k and city node NodeOffset+k agree on
		// position and schedule — the invariant that lets matched keys be
		// remapped by pure arithmetic.
		for k, nd := range d.Net.Nodes() {
			cn := m.Net.Node(d.NodeOffset + roadnet.NodeID(k))
			if cn.Pos != nd.Pos {
				t.Fatalf("district %d node %d: pos %v vs city %v", i, k, nd.Pos, cn.Pos)
			}
			if (nd.Light == nil) != (cn.Light == nil) {
				t.Fatalf("district %d node %d: light presence mismatch", i, k)
			}
			if nd.Light != nil && cn.Light.ID != nd.Light.ID {
				t.Fatalf("district %d node %d: light ID %d vs city %d", i, k, nd.Light.ID, cn.Light.ID)
			}
		}
	}
}

func TestMegacityMatchedKeysAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates traffic")
	}
	ma, err := BuildMegacity(smallMegacityConfig())
	if err != nil {
		t.Fatal(err)
	}
	mb, err := BuildMegacity(smallMegacityConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodesPer := ma.Districts[0].Net.NumNodes()
	total := 0
	for i, d := range ma.Districts {
		ms, err := d.CollectMatched(600)
		if err != nil {
			t.Fatal(err)
		}
		ms2, err := mb.Districts[i].CollectMatched(600)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(ms2) {
			t.Fatalf("district %d: %d vs %d matched records across identical builds", i, len(ms), len(ms2))
		}
		for j, mt := range ms {
			lo, hi := roadnet.NodeID(i*nodesPer), roadnet.NodeID((i+1)*nodesPer)
			if mt.Light < lo || mt.Light >= hi {
				t.Fatalf("district %d record matched to node %d outside [%d, %d)", i, mt.Light, lo, hi)
			}
			if mt.Plate[:3] != d.PlatePrefix {
				t.Fatalf("district %d plate %q missing prefix %q", i, mt.Plate, d.PlatePrefix)
			}
			k1 := mapmatch.Key{Light: mt.Light, Approach: mt.Approach}
			k2 := mapmatch.Key{Light: ms2[j].Light, Approach: ms2[j].Approach}
			if k1 != k2 || mt.T != ms2[j].T {
				t.Fatalf("district %d record %d differs across identical builds", i, j)
			}
		}
		total += len(ms)
	}
	if total == 0 {
		t.Fatal("no matched records from any district")
	}
}

// TestCollectMatchedInChunks collects one district's first 600 s in three
// calls and a twin district's in one: the chunks must join into the same
// matched records.
func TestCollectMatchedInChunks(t *testing.T) {
	ma, err := BuildMegacity(smallMegacityConfig())
	if err != nil {
		t.Fatal(err)
	}
	mb, err := BuildMegacity(smallMegacityConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := ma.Districts[1]
	var chunked []mapmatch.Matched
	for _, until := range []float64{150, 400, 600} {
		ms, err := d.CollectMatched(until)
		if err != nil {
			t.Fatal(err)
		}
		chunked = append(chunked, ms...)
	}
	whole, err := mb.Districts[1].CollectMatched(600)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) == 0 || len(chunked) != len(whole) {
		t.Fatalf("%d matched records in chunks, %d in one call", len(chunked), len(whole))
	}
	for i := range whole {
		a, b := chunked[i], whole[i]
		if a.Seg.ID != b.Seg.ID {
			t.Fatalf("record %d: segment %d in chunks, %d in one call", i, a.Seg.ID, b.Seg.ID)
		}
		a.Seg = b.Seg // twin networks: equal segments, distinct pointers
		if a != b {
			t.Fatalf("record %d: chunked %+v, one call %+v", i, a, b)
		}
	}
}
