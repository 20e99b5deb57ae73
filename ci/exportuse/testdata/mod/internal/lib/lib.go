// Package lib holds one declaration per case the scan must get right.
package lib

import "fmt"

// Unused is exported and nothing calls it: flagged.
func Unused() int { return 1 }

// Lonely is named only inside its own method: flagged. Its String is
// not, because it satisfies fmt.Stringer.
type Lonely struct{ n int }

func (l Lonely) String() string { return fmt.Sprint(Lonely{n: l.n + 1}.n) }

// TestedOnly is called from lib_test.go alone: flagged.
func TestedOnly() int { return 2 }

// Named is printed by cmd/app; its String satisfies fmt.Stringer.
type Named int

func (Named) String() string { return "named" }

// Doer is an interface of the module; Impl.Do is reached through it.
type Doer interface{ Do() int }

type Impl struct{}

func (Impl) Do() int { return 3 }

// Wrapped is printed by cmd/app; errors.Is reaches its Unwrap through an
// interface literal in a function body, not a named interface.
type Wrapped struct{ Err error }

func (w Wrapped) Error() string { return "wrapped" }

func (w Wrapped) Unwrap() error { return w.Err }

// FromSecond is called from the second module alone.
func FromSecond() int { return 4 }

// Config is the fixture's setting root: each leaf field is a setting, and
// its name says who writes it.
type Config struct {
	Mid Mid
	// Written is set by cmd/app through a selector assignment.
	Written int
	// Keyed is set by cmd/app as a composite-literal key.
	Keyed int
	// TupleA and TupleB are set by cmd/app in one tuple assignment.
	TupleA, TupleB int
	// Addressed is set by cmd/app through a taken address.
	Addressed int
	// DefaultOnly is set by DefaultConfig alone: flagged.
	DefaultOnly int
	// Filled is set by withDefaults alone: flagged.
	Filled int
	// TestOnly is set by lib_test.go alone: flagged.
	TestOnly int
	// ReadOnly is read by cmd/app and set nowhere: flagged.
	ReadOnly int
	// hidden is unexported: the package's own state, not a setting.
	hidden int
}

// Mid is a node of the tree, not a setting.
type Mid struct{ Inner Inner }

// Inner holds Deep, set by cmd/app through a nested selector assignment.
type Inner struct{ Deep int }

// DefaultConfig's writes do not count.
func DefaultConfig() Config { return Config{DefaultOnly: 1, hidden: 2} }

// Validate's writes do not count.
func (c *Config) Validate() error {
	if c.ReadOnly < 0 {
		c.ReadOnly = 0
	}
	return nil
}

// withDefaults's writes do not count.
func (c *Config) withDefaults() {
	if c.Filled == 0 {
		c.Filled = 3
	}
}

// Start is called by cmd/app.
func Start(c Config) int {
	c.withDefaults()
	return c.Filled + c.hidden
}
