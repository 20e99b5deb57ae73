// Package pubsub implements the push read path: a per-(light, approach)
// subscription registry and fan-out hub sitting between the estimation
// engine's round observer and the HTTP serving layer. A round's publish
// serializes each updated key exactly once into a pooled, refcounted
// frame and enqueues the same frame to every subscriber of that key, so
// fan-out cost is O(subscribers) pointer sends — not O(subscribers)
// encodes — and the steady-state hot path allocates nothing.
//
// Backpressure is strictly non-blocking: a subscriber whose queue is
// full at publish time is evicted on the spot (the round never waits),
// and the serving layer evicts subscribers that miss a write deadline.
// Both eviction flavors are counted separately so operators can tell
// bursty publishers apart from stalled clients.
//
// The package also owns the state document itself: AppendState is the
// only renderer of a /v1/state body. Watch frames embed it, and the
// serving layer's one state writer (server.WriteState) sends it for
// every polled answer — live, health-only, as-of and the cluster's
// replica answers alike.
package pubsub

import (
	"errors"
	"sync"
	"sync/atomic"

	"taxilight/internal/core"
	"taxilight/internal/mapmatch"
)

// Sentinel errors returned by Subscribe; the serving layer maps
// ErrSubscriberLimit onto the existing jittered 429 shedding and the
// key errors onto 400s.
var (
	ErrSubscriberLimit = errors.New("pubsub: subscriber limit reached")
	ErrTooManyKeys     = errors.New("pubsub: too many keys for one subscription")
	ErrNoKeys          = errors.New("pubsub: subscription needs at least one key")
)

// EvictReason says why the hub cut a subscriber loose.
type EvictReason int32

const (
	// EvictOverflow: the subscriber's queue was full when a round
	// published — the client is consuming slower than rounds complete.
	EvictOverflow EvictReason = iota + 1
	// EvictDeadline: the serving layer timed out writing to the client
	// socket.
	EvictDeadline
	// EvictMoved: the cluster ring reassigned one of the subscriber's
	// keys to another node — the stream's answers would go stale, so the
	// client is cut loose to reconnect and be redirected to the new
	// owner.
	EvictMoved
)

// String returns the metric-label form of the reason.
func (r EvictReason) String() string {
	switch r {
	case EvictOverflow:
		return "overflow"
	case EvictDeadline:
		return "deadline"
	case EvictMoved:
		return "moved"
	default:
		return "none"
	}
}

// Config bounds a Hub. Zero values pick defaults.
type Config struct {
	// MaxSubscribers caps concurrent subscriptions hub-wide; Subscribe
	// beyond it returns ErrSubscriberLimit (mapped to a 429 upstream).
	// <= 0 means unlimited.
	MaxSubscribers int
	// MaxKeysPerSub caps keys on a single subscription. <= 0 means
	// unlimited.
	MaxKeysPerSub int
	// QueueLen is each subscriber's frame queue depth. A subscriber
	// whose queue is full at publish time is evicted, so this is the
	// number of rounds a client may lag before being cut off.
	QueueLen int
}

func (c Config) withDefaults() Config {
	if c.QueueLen <= 0 {
		c.QueueLen = 32
	}
	return c
}

// Event is one key's post-round state as handed to Publish: the fresh
// estimate, its health label, and the engine version that covers it.
type Event struct {
	Key     mapmatch.Key
	Est     core.Estimate
	Health  string
	Version uint64
}

// Frame is one serialized SSE event shared by every subscriber of its
// key. It is refcounted back into a pool: the publisher presets the
// count, each consumer calls Release exactly once after writing the
// bytes out.
type Frame struct {
	buf []byte
	// PubNanos is the monotonic-ish wall clock (UnixNano) captured when
	// the round published, so the serving layer can histogram
	// publish-to-write latency without touching the clock per event.
	PubNanos int64
	refs     atomic.Int32
}

var framePool = sync.Pool{New: func() any { return &Frame{buf: make([]byte, 0, 512)} }}

// Bytes returns the serialized frame. Valid until Release.
func (f *Frame) Bytes() []byte { return f.buf }

// Release drops one reference; the last reference returns the frame to
// the pool.
func (f *Frame) Release() {
	if f.refs.Add(-1) == 0 {
		f.buf = f.buf[:0]
		framePool.Put(f)
	}
}

// Subscriber is one watch connection's registration: a bounded frame
// queue plus a kicked signal the serving goroutine selects on.
type Subscriber struct {
	hub    *Hub
	keys   []mapmatch.Key
	ch     chan *Frame
	kicked chan struct{}
	dead   atomic.Bool
	reason atomic.Int32
}

// Frames is the subscriber's event queue. Frames received from it must
// be Released after use.
func (s *Subscriber) Frames() <-chan *Frame { return s.ch }

// Kicked is closed when the hub or the serving layer evicts the
// subscriber; select on it alongside Frames.
func (s *Subscriber) Kicked() <-chan struct{} { return s.kicked }

// Evict marks the subscriber dead with the given reason and wakes its
// serving goroutine. Safe to call from any goroutine, any number of
// times; only the first call wins. Publish never blocks on an evicted
// subscriber. The caller must still Unsubscribe to free the slot.
func (s *Subscriber) Evict(reason EvictReason) {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	s.reason.Store(int32(reason))
	switch reason {
	case EvictOverflow:
		s.hub.evictOverflow.Add(1)
	case EvictDeadline:
		s.hub.evictDeadline.Add(1)
	case EvictMoved:
		s.hub.evictMoved.Add(1)
	}
	close(s.kicked)
}

// keyEntry is the registry row for one (light, approach): the
// preserialized JSON prefix shared by every frame for the key, and the
// set of subscribers to fan out to.
type keyEntry struct {
	tmpl []byte
	subs map[*Subscriber]struct{}
}

// Hub is the subscription registry and fan-out engine.
type Hub struct {
	cfg Config

	mu    sync.RWMutex
	keys  map[mapmatch.Key]*keyEntry
	nsubs int

	subscribers   atomic.Int64
	delivered     atomic.Uint64
	dropped       atomic.Uint64
	evictOverflow atomic.Uint64
	evictDeadline atomic.Uint64
	evictMoved    atomic.Uint64
}

// NewHub builds a hub with cfg (zero fields defaulted).
func NewHub(cfg Config) *Hub {
	return &Hub{cfg: cfg.withDefaults(), keys: make(map[mapmatch.Key]*keyEntry)}
}

// Subscribe registers a subscription over keys. It fails fast when the
// hub is at MaxSubscribers (shed upstream as a 429) or the key list
// busts the per-connection cap.
func (h *Hub) Subscribe(keys []mapmatch.Key) (*Subscriber, error) {
	if len(keys) == 0 {
		return nil, ErrNoKeys
	}
	if h.cfg.MaxKeysPerSub > 0 && len(keys) > h.cfg.MaxKeysPerSub {
		return nil, ErrTooManyKeys
	}
	sub := &Subscriber{
		keys:   keys,
		ch:     make(chan *Frame, h.cfg.QueueLen),
		kicked: make(chan struct{}),
	}
	h.mu.Lock()
	if h.cfg.MaxSubscribers > 0 && h.nsubs >= h.cfg.MaxSubscribers {
		h.mu.Unlock()
		return nil, ErrSubscriberLimit
	}
	sub.hub = h
	h.nsubs++
	for _, k := range keys {
		ent := h.keys[k]
		if ent == nil {
			ent = &keyEntry{
				tmpl: AppendKeyPrefix(nil, k),
				subs: make(map[*Subscriber]struct{}),
			}
			h.keys[k] = ent
		}
		ent.subs[sub] = struct{}{}
	}
	h.mu.Unlock()
	h.subscribers.Add(1)
	return sub, nil
}

// Unsubscribe removes sub from the registry and drains its queue,
// releasing any frames still in flight. Idempotent per subscriber; the
// serving layer defers it on every connection.
func (h *Hub) Unsubscribe(sub *Subscriber) {
	if sub == nil || sub.hub == nil {
		return
	}
	h.mu.Lock()
	removed := false
	for _, k := range sub.keys {
		ent := h.keys[k]
		if ent == nil {
			continue
		}
		if _, ok := ent.subs[sub]; ok {
			delete(ent.subs, sub)
			removed = true
			if len(ent.subs) == 0 {
				delete(h.keys, k)
			}
		}
	}
	if removed {
		h.nsubs--
	}
	h.mu.Unlock()
	if !removed {
		return
	}
	h.subscribers.Add(-1)
	// No publisher can still hold a reference to sub (removal took the
	// write lock), so the queue is quiescent and safe to drain.
	for {
		select {
		case f := <-sub.ch:
			f.Release()
		default:
			return
		}
	}
}

// PublishStats summarizes one Publish call.
type PublishStats struct {
	// Delivered counts frames enqueued to subscriber queues.
	Delivered int
	// Evicted counts subscribers cut for queue overflow during this
	// publish.
	Evicted int
}

// Publish fans events out to every subscriber of each event's key. The
// frame for a key is serialized once and shared; enqueues are
// non-blocking, and a subscriber with a full queue is evicted rather
// than awaited — a round's publish NEVER blocks on a slow client.
//
// id is the SSE event id for the round (the server's version-vector
// tag); t is the stream time the phase/countdown fields are evaluated
// at; pubNanos stamps the frames for downstream latency measurement.
func (h *Hub) Publish(id string, t float64, pubNanos int64, events []Event) PublishStats {
	var st PublishStats
	if len(events) == 0 || h.subscribers.Load() == 0 {
		return st
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	for i := range events {
		ev := &events[i]
		ent := h.keys[ev.Key]
		if ent == nil || len(ent.subs) == 0 {
			continue
		}
		f := framePool.Get().(*Frame)
		f.buf = appendEventFrame(f.buf[:0], id, ent.tmpl, ev.Key, t, *ev)
		f.PubNanos = pubNanos
		// The +1 is the publisher's own reference: it keeps the frame
		// alive until the fan-out loop finishes even if early consumers
		// Release concurrently.
		f.refs.Store(int32(len(ent.subs)) + 1)
		for sub := range ent.subs {
			if sub.dead.Load() {
				f.Release()
				continue
			}
			select {
			case sub.ch <- f:
				st.Delivered++
			default:
				f.Release()
				sub.Evict(EvictOverflow)
				st.Evicted++
			}
		}
		f.Release()
	}
	h.delivered.Add(uint64(st.Delivered))
	h.dropped.Add(uint64(st.Evicted))
	return st
}

// EvictWhere evicts every subscriber whose key set satisfies pred,
// with the given reason. The predicate runs outside the publish path
// but under the registry read lock, so it must be cheap and must not
// call back into the hub. It returns how many subscribers were cut.
// The serving layer uses it with EvictMoved when the cluster ring
// reassigns keys: affected watchers are kicked so they reconnect and
// get redirected to the new owner.
func (h *Hub) EvictWhere(reason EvictReason, pred func(keys []mapmatch.Key) bool) int {
	h.mu.RLock()
	var victims []*Subscriber
	seen := make(map[*Subscriber]struct{})
	for _, ent := range h.keys {
		for sub := range ent.subs {
			if _, dup := seen[sub]; dup {
				continue
			}
			seen[sub] = struct{}{}
			if !sub.dead.Load() && pred(sub.keys) {
				victims = append(victims, sub)
			}
		}
	}
	h.mu.RUnlock()
	for _, sub := range victims {
		sub.Evict(reason)
	}
	return len(victims)
}

// Subscribers reports the current subscription count (the
// lightd_watch_subscribers gauge, and the fast-path guard that lets a
// round skip fan-out work entirely when nobody is watching).
func (h *Hub) Subscribers() int { return int(h.subscribers.Load()) }

// Stats is a counters snapshot for /metrics and /healthz.
type Stats struct {
	Subscribers     int
	Delivered       uint64
	Dropped         uint64
	EvictedOverflow uint64
	EvictedDeadline uint64
	EvictedMoved    uint64
}

// Snapshot returns the hub's cumulative counters.
func (h *Hub) Snapshot() Stats {
	return Stats{
		Subscribers:     h.Subscribers(),
		Delivered:       h.delivered.Load(),
		Dropped:         h.dropped.Load(),
		EvictedOverflow: h.evictOverflow.Load(),
		EvictedDeadline: h.evictDeadline.Load(),
		EvictedMoved:    h.evictMoved.Load(),
	}
}
