package obs

// Lookups reports how many series lookups r has served: every
// Counter, Gauge and Histogram call on it, first registration or not.
func (r *Registry) Lookups() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookups
}
