// Package mono is the process's one monotonic clock: the gate stamps calls
// with it, and from those stamps the store tells unix time and the latency
// sampler takes differences (DESIGN.md §12 "Who reads the clock").
package mono

import "time"

var (
	start = time.Now()
	wall  = start.UnixNano()
)

// Now is one monotonic read where time.Now makes two, and never 0: holders
// keep 0 for "no stamp".
func Now() int64 { return int64(time.Since(start)) + 1 }

// At places an injected time on the same scale.
func At(t time.Time) int64 { return int64(t.Sub(start)) + 1 }

// Unix is a stamp as unix seconds: the anchor's wall clock plus monotonic
// time since (memcached's current_time), so deaf to a stepped wall clock.
func Unix(stamp int64) int64 { return (wall + stamp) / int64(time.Second) }
