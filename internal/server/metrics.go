package server

import (
	"net/http"
	"time"

	"plibmc/internal/metrics"
)

// HTTP exporter for the baseline server, shaped like the protected-library
// store's (metric names prefixed mcbase_ instead of plibmc_) so the two
// can be scraped side by side in an experiment.

// Samples renders the store's counters and latency histograms as
// Prometheus samples.
func (s *Store) Samples() []metrics.Sample {
	snap := s.Snapshot()
	lat := s.LatencySnapshot()
	var out []metrics.Sample
	g := func(name string, v float64, labels ...string) {
		out = append(out, metrics.Sample{Name: name, Labels: metrics.L(labels...), Value: v})
	}
	g("mcbase_ops_total", float64(snap.Gets), "op", "get")
	g("mcbase_ops_total", float64(snap.Sets), "op", "set")
	g("mcbase_ops_total", float64(snap.Deletes), "op", "delete")
	g("mcbase_ops_total", float64(snap.Incrs), "op", "incr")
	g("mcbase_ops_total", float64(snap.Decrs), "op", "decr")
	g("mcbase_ops_total", float64(snap.Touches), "op", "touch")
	g("mcbase_get_hits_total", float64(snap.GetHits))
	g("mcbase_get_misses_total", float64(snap.GetMisses))
	g("mcbase_touch_hits_total", float64(snap.TouchHits))
	g("mcbase_touch_misses_total", float64(snap.TouchMisses))
	g("mcbase_evictions_total", float64(snap.Evictions))
	g("mcbase_expired_total", float64(snap.Expired))
	g("mcbase_curr_items", float64(snap.CurrItems))
	g("mcbase_bytes", float64(snap.Bytes))
	for class := range lat {
		h := &lat[class]
		name := LatClassNames[class]
		for _, q := range []struct {
			q string
			p float64
		}{{"0.5", 50}, {"0.99", 99}} {
			g("mcbase_op_latency_seconds", h.Percentile(q.p).Seconds(), "op", name, "quantile", q.q)
		}
		g("mcbase_op_latency_seconds_count", float64(h.Count()), "op", name)
		g("mcbase_op_latency_seconds_sum", (time.Duration(h.Count()) * h.Mean()).Seconds(), "op", name)
	}
	return out
}

// MetricsHandler serves /metrics for the baseline store.
func (s *Store) MetricsHandler() http.Handler { return metrics.Handler(s.Samples) }
