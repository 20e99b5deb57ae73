package cluster

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// Epoch returns the ownership epoch — it moves on every serving-set
// change (death, leave, revival, join cutover).
func (n *Node) Epoch() uint64 { return n.epoch.Load() }
