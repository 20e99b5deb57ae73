package server

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"taxilight/internal/core"
	"taxilight/internal/lights"
	"taxilight/internal/mapmatch"
	"taxilight/internal/roadnet"
)

// TestBatchSlicesRecycled: once the engine has copied a batch out, its
// slice goes back to the shard's free list emptied and zeroed — a parked
// slice must not pin plate strings — and the next dispatch takes its
// slices from there. A round holds the shard while the batches go out, so
// none is recycled before the dispatcher has taken a slice for the last.
func TestBatchSlicesRecycled(t *testing.T) {
	release, entered := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	s := newTestServer(t, func(c *Config) {
		c.Shards = 1
		c.BatchSize = 4
		c.OnRound = func(int, core.RoundStats) {
			if held.CompareAndSwap(false, true) {
				entered <- struct{}{}
				<-release
			}
		}
	})
	s.Start()
	sh := s.shards[0]
	key := mapmatch.Key{Light: roadnet.NodeID(3), Approach: lights.NorthSouth}
	// The first record's round holds the shard; its slice is recycled
	// before the round, so one slice is spare while the shard is held.
	s.Dispatch(context.Background(), []mapmatch.Matched{{Plate: "A", Light: key.Light, Approach: key.Approach, T: 0.5}})
	<-entered
	var ms []mapmatch.Matched
	for i := 0; i < 10; i++ {
		ms = append(ms, mapmatch.Matched{
			Plate:    fmt.Sprintf("B%d", i),
			Light:    key.Light,
			Approach: key.Approach,
			T:        float64(i + 1),
		})
	}
	s.Dispatch(context.Background(), ms) // three batches: the spare and two new slices
	close(release)
	s.StopIngest() // the shard has ingested, and so recycled, every batch

	if got := sh.engine.Health().BufferedRecords; got != len(ms)+1 {
		t.Fatalf("engine buffered %d records, want %d", got, len(ms)+1)
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

	if DefaultConfig().ShardBuffer+2 != freeBatches {
		t.Fatalf("default shard queue %d, want freeBatches − 2 = %d", DefaultConfig().ShardBuffer, freeBatches-2)
	}

	t.Run("Backlog", func(t *testing.T) {
		// A round holds the shard while one source dispatches what it can
		// have out to a stalled shard: a full queue, the batch being
		// ingested, the batch being filled. Once the shard drains, every
		// one of those slices is a spare, and the same backlog again is
		// served from the spares alone.
		var hold atomic.Pointer[chan struct{}]
		entered := make(chan struct{})
		s := newTestServer(t, func(c *Config) {
			c.Shards = 1
			c.BatchSize = 4
			c.OnRound = func(int, core.RoundStats) {
				if release := hold.Swap(nil); release != nil {
					entered <- struct{}{}
					<-*release
				}
			}
		})
		s.Start()
		defer s.StopIngest()
		sh := s.shards[0]
		backlog := s.cfg.ShardBuffer + 2
		records := func(t0 float64, batches int) []mapmatch.Matched {
			ms := make([]mapmatch.Matched, batches*s.cfg.BatchSize)
			for i := range ms {
				ms[i] = mapmatch.Matched{Plate: fmt.Sprintf("Q%d", i%7), Light: key.Light, Approach: key.Approach, T: t0 + float64(i)/1000}
			}
			return ms
		}
		// cycle runs one held round and returns the arrays of the backlog's
		// batches, which it takes off the queue and hands back in order.
		cycle := func(t0 float64) map[*mapmatch.Matched]bool {
			release := make(chan struct{})
			hold.Store(&release)
			s.Dispatch(context.Background(), records(t0, 1)) // its round holds the shard
			<-entered
			dispatched := make(chan struct{})
			go func() {
				s.Dispatch(context.Background(), records(t0+1, backlog))
				close(dispatched)
			}()
			batches := make([][]mapmatch.Matched, backlog)
			arrays := map[*mapmatch.Matched]bool{}
			for i := range batches {
				batches[i] = <-sh.in
				arrays[unsafe.SliceData(batches[i])] = true
			}
			<-dispatched
			close(release)
			for _, b := range batches {
				sh.in <- b
			}
			for deadline := time.Now().Add(10 * time.Second); len(sh.free) < freeBatches || len(sh.in) > 0; {
				if time.Now().After(deadline) {
					t.Fatalf("after the drain %d slices are spare, want %d", len(sh.free), freeBatches)
				}
				time.Sleep(time.Millisecond)
			}
			return arrays
		}
		first := cycle(0)
		if len(first) != backlog {
			t.Fatalf("the backlog went out in %d slices, want %d", len(first), backlog)
		}
		for a := range cycle(1000) {
			if !first[a] {
				t.Fatal("the second backlog allocated a batch slice with every slice of the first spare")
			}
		}
	})
}
