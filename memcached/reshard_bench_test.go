package memcached

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/ring"
)

// BenchmarkResizeMigration measures the live-resharding data path end to
// end: a 4-shard cluster loaded with 50 k keys resizes to 6 shards under
// a continuous single-session read workload. Reported per run:
//
//	migrate-keys/s    keys the migrator moved per second of wall time
//	moved-frac        fraction of the key population that changed shards
//	predicted-frac    ring.MovedFraction's sampled estimate for the same
//	                  ring pair — the two should agree, pinning that the
//	                  migrator moves only what the ring says moved
//	p99-steady-us     client Get p99 before the resize
//	p99-migrate-us    client Get p99 while segments stream and the resize cuts over
func BenchmarkResizeMigration(b *testing.B) {
	const nKeys = 50_000
	val := make([]byte, 128)
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		c, err := CreateCluster(ClusterConfig{
			Shards: 4,
			Store:  Config{HeapBytes: 64 << 20, HashPower: 14, NumItemLocks: 64},
		})
		if err != nil {
			b.Fatal(err)
		}
		cc, err := c.NewClientProcess(1000)
		if err != nil {
			b.Fatal(err)
		}
		s, err := cc.NewSession()
		if err != nil {
			b.Fatal(err)
		}
		keys := make([][]byte, nKeys)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("resize-bench-%06d", i))
			if err := s.Set(keys[i], val, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
		oldRing := c.Ring()

		// One latency probe, reused for the steady and migrating windows.
		rs, err := cc.NewSession()
		if err != nil {
			b.Fatal(err)
		}
		probe := func(stop *atomic.Bool) []time.Duration {
			var lat []time.Duration
			for i := 0; !stop.Load(); i++ {
				t0 := time.Now()
				if _, _, err := rs.Get(keys[i%nKeys]); err != nil {
					b.Errorf("probe get: %v", err)
					return lat
				}
				lat = append(lat, time.Since(t0))
			}
			return lat
		}
		p99 := func(lat []time.Duration) time.Duration {
			if len(lat) == 0 {
				return 0
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			return lat[len(lat)*99/100]
		}

		// Steady-state window: as long as the migration will roughly take.
		var stop atomic.Bool
		steadyCh := make(chan []time.Duration, 1)
		go func() { steadyCh <- probe(&stop) }()
		time.Sleep(300 * time.Millisecond)
		stop.Store(true)
		steady := <-steadyCh

		b.StartTimer()
		var stopM atomic.Bool
		migCh := make(chan []time.Duration, 1)
		go func() { migCh <- probe(&stopM) }()
		start := time.Now()
		if err := c.Resize(6); err != nil {
			b.Fatal(err)
		}
		if err := c.WaitResize(120 * time.Second); err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start)
		b.StopTimer()
		stopM.Store(true)
		migrating := <-migCh

		st := c.MigrationStatus()
		if st.Error != "" {
			b.Fatalf("migration error: %s", st.Error)
		}
		b.ReportMetric(float64(st.KeysMoved)/wall.Seconds(), "migrate-keys/s")
		b.ReportMetric(float64(st.KeysMoved)/nKeys, "moved-frac")
		b.ReportMetric(ring.MovedFraction(oldRing, c.Ring(), 20_000), "predicted-frac")
		b.ReportMetric(float64(p99(steady).Microseconds()), "p99-steady-us")
		b.ReportMetric(float64(p99(migrating).Microseconds()), "p99-migrate-us")
		c.Shutdown()
	}
}
