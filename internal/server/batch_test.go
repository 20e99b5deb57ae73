package server

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

// TestBatchSlicesRecycled: once the engine has copied a batch out, its
// slice goes back to the shard's free list emptied and zeroed — a parked
// slice must not pin plate strings — and the next dispatch takes its
// slices from there.
func TestBatchSlicesRecycled(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Shards = 1; c.BatchSize = 4 })
	s.Start()
	sh := s.shards[0]
	key := mapmatch.Key{Light: roadnet.NodeID(3), Approach: lights.NorthSouth}
	var ms []mapmatch.Matched
	for i := 0; i < 10; i++ {
		ms = append(ms, mapmatch.Matched{
			Plate:    fmt.Sprintf("B%d", i),
			Light:    key.Light,
			Approach: key.Approach,
			T:        float64(i),
		})
	}
	s.Dispatch(context.Background(), ms)
	s.StopIngest() // the shard has ingested, and so recycled, every batch

	if got := sh.engine.Health().BufferedRecords; got != len(ms) {
		t.Fatalf("engine buffered %d records, want %d", got, len(ms))
	}
	if n := len(sh.free); n != 3 { // 4 + 4 + 2 records
		t.Fatalf("%d slices on the free list, want 3", n)
	}
	spare := <-sh.free
	if len(spare) != 0 || cap(spare) < 4 {
		t.Fatalf("recycled slice has len %d cap %d", len(spare), cap(spare))
	}
	for i, m := range spare[:cap(spare)] {
		if !reflect.DeepEqual(m, mapmatch.Matched{}) {
			t.Fatalf("recycled slot %d still holds %+v", i, m)
		}
	}
	if sh.takeBatch(4); len(sh.free) != 1 {
		t.Fatal("takeBatch allocated with spare slices on the free list")
	}
}
