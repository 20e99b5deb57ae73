package metrics

// Test hooks: only this package's tests call the code in this file, most
// of them while testing other behaviour, so it lives beside them.

// Families lists every family in registration order.
func (r *Registry) Families() []Family {
	out := make([]Family, len(r.families))
	for i, f := range r.families {
		out[i] = f.Family
	}
	return out
}
