package server

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// StoreDegraded reports whether the persist writer gave up on the store
// after exhausting its write-failure budget.
func (s *Server) StoreDegraded() bool { return s.storeDegraded.Load() }

// WatchSubscribers reports the current /v1/watch subscription count.
func (s *Server) WatchSubscribers() int { return s.hub.Subscribers() }
