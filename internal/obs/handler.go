package obs

import "net/http"

// Handler returns an http.Handler serving the registry in the
// Prometheus text exposition format — the /metrics endpoint
// dialga-node mounts, kept here so the content type and error handling
// are written once. A nil registry serves an empty (but valid)
// exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.Expose(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
