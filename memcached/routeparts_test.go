package memcached

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"plibmc/internal/ring"
)

var routeSink int

// BenchmarkRouteParts prices each piece the cluster tier wraps around a
// per-shard session call, on the lib_read_128 shape (4 shards, 128 vnodes,
// 20 B keys), with the whole routed Get and the bare session Get beside
// them (make bench-gate; the rows are tabulated in DESIGN.md §13).
func BenchmarkRouteParts(b *testing.B) {
	c := newTestCluster(b, 4, ClusterConfig{})
	s := newClusterSession(b, c)
	key := []byte("user0000000000001234") // 20 B, the harness's key width
	val := make([]byte, 128)
	if err := s.Set(key, val, 0, 0); err != nil {
		b.Fatal(err)
	}
	r := c.Ring()
	sh := r.Shard(key)

	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			routeSink += int(ring.Hash(key))
		}
	})
	b.Run("owner", func(b *testing.B) {
		h := ring.Hash(key)
		for i := 0; i < b.N; i++ {
			routeSink += r.Owner(h)
			h += 0x9e3779b97f4a7c15 // walk the whole circle
		}
	})
	b.Run("routeMu", func(b *testing.B) {
		mu := &c.routeMu.stripes[s.stripe]
		for i := 0; i < b.N; i++ {
			mu.RLock()
			mu.RUnlock()
		}
	})
	b.Run("allow+report-nil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := c.shardAllow(c.top(), sh); err != nil {
				b.Fatal(err)
			}
			c.shardReport(c.top(), sh, nil)
		}
	})
	b.Run("report-nil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.shardReport(c.top(), sh, nil)
		}
	})
	b.Run("report-miss", func(b *testing.B) {
		// What doShard hands the breaker after a miss.
		ss, err := s.sess(c.top(), sh)
		if err != nil {
			b.Fatal(err)
		}
		var res BatchResult
		cerr := ss.cross(&BatchOp{Code: BatchGet, Key: []byte("absent")}, &res)
		if res.Err != ErrNotFound {
			b.Fatalf("miss = %v", res.Err)
		}
		for i := 0; i < b.N; i++ {
			c.shardReport(c.top(), sh, cerr)
		}
	})
	b.Run("sess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.sess(c.top(), sh); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session-get", func(b *testing.B) {
		ss, _ := s.sess(c.top(), sh)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ss.Get(key); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("routed-get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Get(key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// parallelGetRate remembers BenchmarkParallelGet's ops/s per GOMAXPROCS,
// so the run at -cpu 2 can report its ratio to the run at -cpu 1.
var parallelGetRate = map[int]float64{}

// BenchmarkParallelGet prices contention, the cost no single-thread row
// shows: one ClusterSession per goroutine, each from its own client
// process, all reading one 4-shard cluster of 128 B values — half the Gets
// on 1 000 hot keys, the rest spread over 10 000. Run with -cpu 1,2 (make
// bench-gate): ops/s at each, and at 2 the ratio to 1. Work that shares no
// written line scales about 2× on two cores; every word two threads both
// write takes from that.
func BenchmarkParallelGet(b *testing.B) {
	const records, hot = 10000, 1000
	c := newTestCluster(b, 4, ClusterConfig{})
	loader := newClusterSession(b, c)
	keys, val := make([][]byte, records), make([]byte, 128)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016d", i))
		if err := loader.Set(keys[i], val, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	sessions := make([]*ClusterSession, procs)
	for i := range sessions {
		sessions[i] = newClusterSession(b, c)
	}
	var next atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1) - 1
		s, rng := sessions[i%int32(procs)], uint64(i+1)*0x9e3779b97f4a7c15
		for pb.Next() {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			k := keys[rng%records]
			if rng>>63 == 0 {
				k = keys[rng%hot]
			}
			if _, _, err := s.Get(k); err != nil {
				b.Error(err)
				return
			}
		}
	})
	rate := float64(b.N) / b.Elapsed().Seconds()
	parallelGetRate[procs] = rate
	b.ReportMetric(rate, "ops/s")
	if one := parallelGetRate[1]; procs > 1 && one > 0 {
		b.ReportMetric(rate/one, "x-cpu1")
	}
}

// BenchmarkBatchParts prices a 64-key batch of gets tier by tier, on the
// lib_mget64_128 shape (20 B keys, 128 B values): the core loop alone,
// plus one crossing, plus partition and assembly over 4 shards (four
// crossings of 16), all three into buffers the benchmark lends and so
// allocation-free, then the public MGet, which adds the two allocations
// the caller keeps (make bench-gate; the rows are tabulated in DESIGN.md
// §12). A change to the batch plane says which row it moved.
func BenchmarkBatchParts(b *testing.B) {
	const n = 64
	single := newTestSession(b, newTestStore(b))
	routed := newClusterSession(b, newTestCluster(b, 4, ClusterConfig{}))
	keys, ops := make([][]byte, n), make([]BatchOp, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016d", i))
		ops[i] = BatchOp{Code: BatchGet, Key: keys[i]}
		for _, kv := range []KV{single, routed} {
			if err := kv.Set(keys[i], make([]byte, 128), 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	res, vbuf := make([]BatchResult, n), make([]byte, 0, n*128)
	row := func(name string, batch func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := batch(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
		})
	}
	row("core-loop", func() error {
		single.Ctx().ExecBatch(ops, res, vbuf)
		return nil
	})
	row("one-crossing", func() error {
		_, err := single.batch(ops, res, vbuf)
		return err
	})
	row("routed-4-shards", func() error {
		_, err := routed.batch(ops, res, vbuf)
		return err
	})
	row("session-mget", func() error {
		_, err := single.MGet(keys)
		return err
	})
	row("cluster-mget", func() error {
		_, err := routed.MGet(keys)
		return err
	})
}
