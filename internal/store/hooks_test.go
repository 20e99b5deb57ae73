package store

import "io"

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// StreamSince is StreamSinceFunc of every record.
func (s *Store) StreamSince(from uint64, w io.Writer) (last uint64, n int, err error) {
	return s.StreamSinceFunc(from, nil, w)
}
