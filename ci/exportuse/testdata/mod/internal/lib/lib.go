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
