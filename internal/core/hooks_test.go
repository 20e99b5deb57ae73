package core

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// NewHistory returns an empty historical prior.
func NewHistory() *History {
	h := newHistory(0)
	return &h
}
