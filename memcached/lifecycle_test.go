package memcached

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/faultpoint"
)

// waitUntil polls cond every few milliseconds until it holds or timeout
// passes, and reports whether it held.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

func lifecycleTestConfig(dir string) ClusterConfig {
	return ClusterConfig{
		Shards: 2,
		Dir:    dir,
		Store:  Config{HeapBytes: 4 << 20, HashPower: 8, NumItemLocks: 16, LatencySampleEvery: 1},
	}
}

// checkpointCadence is a checkpoint interval several times what one image
// of c's shard 0 costs here. A checkpoint quiesces its shard, so a cadence
// the writes cannot keep up with would starve the migrator, and the race
// detector makes an image many times dearer.
func checkpointCadence(t *testing.T, c *Cluster) time.Duration {
	t.Helper()
	start := time.Now()
	if err := c.Shard(0).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return max(20*time.Millisecond, 5*time.Since(start))
}

// A shard a resize adds runs the cluster's background loops like the
// shards it joins: its first checkpoint lands on disk and its maintenance
// passes run, with no call naming it.
func TestResizedShardsRunClusterLoops(t *testing.T) {
	c := newTestCluster(t, 2, lifecycleTestConfig(t.TempDir()))
	c.StartMaintenance(5 * time.Millisecond)
	c.StartCheckpointing(checkpointCadence(t, c))
	if err := c.Resize(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitResize(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	grown := c.Shard(2)
	if !waitUntil(10*time.Second, func() bool { return grown.CheckpointGeneration() > 0 }) {
		t.Error("the grown shard never wrote a checkpoint")
	}
	maintPasses := func() uint64 {
		lat := grown.Store().Latency()
		return lat.Classes[core.LatMaint].Count()
	}
	if !waitUntil(10*time.Second, func() bool { return maintPasses() > 0 }) {
		t.Error("the grown shard never ran a maintenance pass")
	}
}

// The crash the previous test guards against: grow 2 → 4 under periodic
// checkpointing, let every shard checkpoint past the cutover, then die
// without a final flush. The reopened cluster must hold every key, with no
// shard degraded to an empty rebuild.
func TestReopenAfterGrowWithoutShutdown(t *testing.T) {
	cfg := lifecycleTestConfig(t.TempDir())
	c, err := CreateCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newClusterSession(t, c)
	const n = 1000
	key := func(i int) []byte { return []byte(fmt.Sprintf("grow-%04d", i)) }
	for i := 0; i < n; i++ {
		if err := s.Set(key(i), key(i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.StartCheckpointing(checkpointCadence(t, c))
	if err := c.Resize(4); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitResize(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	gens := make([]uint64, c.Shards())
	for i := range gens {
		gens[i] = c.Shard(i).CheckpointGeneration()
	}
	if !waitUntil(10*time.Second, func() bool {
		for i, g := range gens {
			if c.Shard(i).CheckpointGeneration() <= g {
				return false
			}
		}
		return true
	}) {
		// Not fatal: the reopen below says what the missing images cost.
		t.Error("not every shard checkpointed after the cutover")
	}
	for i := 0; i < c.Shards(); i++ { // the crash: loops stop, nothing flushes
		c.Shard(i).StopMaintenance()
		c.Shard(i).StopCheckpointing()
	}

	c2, err := OpenCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Shutdown()
	for _, st := range c2.ShardStatuses() {
		if st.RebuiltAtOpen {
			t.Errorf("shard %d was rebuilt empty at open", st.Shard)
		}
	}
	s2 := newClusterSession(t, c2)
	found := 0
	for i := 0; i < n; i++ {
		if v, _, err := s2.Get(key(i)); err == nil && bytes.Equal(v, key(i)) {
			found++
		}
	}
	if found != n {
		t.Fatalf("reopened cluster holds %d of %d keys", found, n)
	}
}

// loopGoroutines counts the goroutines running a loop's passes. A
// stopped loop's goroutine may still be returning when stop does, so
// callers wait for the count they expect.
func loopGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("memcached.(*loop).start.func1("))
}

// settledLoopGoroutines is loopGoroutines once two reads agree.
func settledLoopGoroutines() int {
	n := loopGoroutines()
	waitUntil(time.Second, func() bool {
		prev := n
		n = loopGoroutines()
		return n == prev
	})
	return n
}

// Starting and stopping a store's loops from two goroutines, and starting
// a cluster's maintenance while the supervisor installs a rebuilt shard,
// leaves exactly one loop per store: none lost by the rebuilt shard, none
// left behind on the dropped store, none doubled. Run it under -race.
func TestLoopStartStopRace(t *testing.T) {
	defer faultpoint.DisarmAll()
	before := settledLoopGoroutines()

	b, err := CreateStore(Config{HeapBytes: 8 << 20, HashPower: 8, NumItemLocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b.StartMaintenance(time.Millisecond)
				b.StopMaintenance()
			}
			b.StartMaintenance(time.Millisecond)
		}()
	}
	wg.Wait()

	c := newTestCluster(t, 2, supervisorTestConfig())
	poisonShard(t, c, 0)
	dropped := c.Shard(0)
	wg.Add(2)
	go func() { defer wg.Done(); c.StartMaintenance(time.Millisecond) }()
	go func() { defer wg.Done(); c.SuperviseOnce() }()
	wg.Wait()
	if c.Shard(0) == dropped {
		t.Fatal("the supervisor did not rebuild the poisoned shard")
	}
	if !waitUntil(time.Second, func() bool { return loopGoroutines()-before == 3 }) {
		t.Fatalf("%d loops run for the store and the cluster's two shards, want 3",
			loopGoroutines()-before)
	}

	b.StopMaintenance()
	c.Shutdown()
	if !waitUntil(time.Second, func() bool { return loopGoroutines() == before }) {
		t.Fatalf("%d loops outlive their stores", loopGoroutines()-before)
	}
}
