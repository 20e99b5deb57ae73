package ingest

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// State returns the current supervision state.
func (s *Source) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Sources exposes the supervised sources in spec order. The slice is
// owned by the supervisor; do not mutate it.
func (sup *Supervisor) Sources() []*Source { return sup.sources }
