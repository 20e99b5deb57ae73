package pubsub

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// EvictReason reports why the subscriber was evicted (zero while live).
func (s *Subscriber) EvictReason() EvictReason { return EvictReason(s.reason.Load()) }
