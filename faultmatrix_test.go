package plibmc

// The crash-recovery fault matrix: for every registered crash point in
// the library, kill a client exactly there and assert the store comes
// back — repaired, verified, and serving — within the grace bound.
//
// Each subtest builds a small store with a survivor client and a doomed
// client, primes it past the expansion and eviction thresholds, arms one
// fault point with a handler that kills the doomed process and panics
// (the SIGKILL-mid-call analog), then drives the doomed client (and the
// bookkeeper's maintenance, which owns the expansion/eviction/reap
// points) until the point fires. Recovery must then complete without
// poisoning, the heap must verify, and the survivor must get full
// service from the repaired store.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/faultpoint"
	"plibmc/memcached"
)

func TestFaultMatrix(t *testing.T) {
	points := faultpoint.Names()
	if len(points) == 0 {
		t.Fatal("no registered fault points; the crash-injection sites are gone")
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			if strings.HasPrefix(point, "persist.") {
				// Checkpoint-writer points: the failing actor is the
				// bookkeeper process itself, mid-image-write. Recovery is
				// not online repair but reload-from-disk.
				runPersistFaultAt(t, point)
				return
			}
			if point == "recover.repair_fail" {
				// The point that fails the repair pass itself: hodor's
				// ladder ends in poison *by design*, so the recovery
				// asserted here is the shard supervisor's rebuild of the
				// poisoned store, not online repair (DESIGN.md §16).
				runRepairFailFaultAt(t)
				return
			}
			if strings.HasPrefix(point, "migrate.") {
				// Migrator points: the failing actor is the background
				// segment migrator of a live resize, not a library client.
				// Killed there, the migration must survive — both shards
				// healthy, a fresh attempt resuming — which is what the
				// resize runner asserts (reshard_test.go).
				runMigrateFaultAt(t, point)
				return
			}
			runFaultAt(t, point)
		})
	}
}

// runPersistFaultAt kills the bookkeeper at one point inside the
// checkpoint writer and asserts the on-disk image set still round-trips:
// OpenStore must come back on the previous checkpoint's generation with
// every pre-checkpoint write intact and the heap verifying.
func runPersistFaultAt(t *testing.T, point string) {
	defer faultpoint.DisarmAll()
	path := filepath.Join(t.TempDir(), "store.img")
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes:    16 << 20,
		Path:         path,
		HashPower:    8,
		NumItemLocks: 16,
		CallTimeout:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := book.NewClientProcess(1001)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	val := bytes.Repeat([]byte("v"), 256)

	// Phase 1: writes that the first checkpoint makes durable.
	const durable = 200
	for i := 0; i < durable; i++ {
		if err := s.Set(key(i), val, 0, 0); err != nil {
			t.Fatalf("phase 1: %v", err)
		}
	}
	if err := book.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: writes at risk — the checkpoint persisting them dies at
	// the armed point.
	for i := durable; i < 2*durable; i++ {
		if err := s.Set(key(i), val, 0, 0); err != nil {
			t.Fatalf("phase 2: %v", err)
		}
	}
	var fired atomic.Bool
	if err := faultpoint.Arm(point, func() {
		fired.Store(true)
		panic("faultmatrix: bookkeeper dies at " + point)
	}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("checkpoint completed; fault point %s never fired", point)
			}
		}()
		_ = book.Checkpoint()
	}()
	if !fired.Load() {
		t.Fatalf("workload never reached fault point %s", point)
	}
	faultpoint.DisarmAll()
	// The bookkeeper is dead mid-write: no Shutdown, no flush. Everything
	// it leaves behind is whatever the crash left on disk.

	// The survivor of the crash is a fresh bookkeeper: OpenStore must find
	// a verifying image (the phase-1 checkpoint) among the candidates.
	book2, err := memcached.OpenStore(memcached.Config{Path: path})
	if err != nil {
		t.Fatalf("reload after crash at %s: %v", point, err)
	}
	defer book2.Shutdown()
	if gen := book2.CheckpointGeneration(); gen != 1 {
		t.Fatalf("reloaded generation = %d after crash at %s, want 1", gen, point)
	}
	if _, err := book2.Allocator().Check(); err != nil {
		t.Fatalf("heap verification after reload: %v", err)
	}
	cp2, err := book2.NewClientProcess(1002)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cp2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Every durable write is intact; every at-risk write is a clean miss
	// (the dying checkpoint must not have replaced the good image).
	for i := 0; i < durable; i++ {
		if v, _, err := s2.Get(key(i)); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("durable key %s lost after crash at %s: %q, %v", key(i), point, v, err)
		}
	}
	for i := durable; i < 2*durable; i++ {
		if _, _, err := s2.Get(key(i)); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("at-risk key %s = %v after crash at %s, want clean miss", key(i), err, point)
		}
	}
	// The reloaded store accepts new work and can checkpoint again.
	if err := s2.Set([]byte("post-crash"), []byte("alive"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := book2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after reload: %v", err)
	}
}

// runRepairFailFaultAt covers recover.repair_fail, the one point whose
// firing is *supposed* to end in poison: the repair routine dies before
// touching anything, hodor's ladder terminates, and recovery means the
// shard supervisor detaching the dead store and rebuilding it. One shard
// of two is poisoned; the survivor must never notice, and the rebuilt
// shard must serve fresh writes.
func runRepairFailFaultAt(t *testing.T) {
	defer faultpoint.DisarmAll()
	c, err := memcached.CreateCluster(memcached.ClusterConfig{
		Shards: 2,
		Store: memcached.Config{
			HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16,
			CallTimeout: 50 * time.Millisecond, RecoveryGrace: 200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	doomKey := []byte("doom-key-0")
	victim := c.ShardFor(doomKey)
	var safeKey []byte
	for i := 0; safeKey == nil; i++ {
		if k := []byte(fmt.Sprintf("safe-%d", i)); c.ShardFor(k) != victim {
			safeKey = k
		}
	}
	scc, err := c.NewClientProcess(1001)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := scc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := survivor.Set(safeKey, []byte("v0"), 0, 0); err != nil {
		t.Fatal(err)
	}

	poisonClusterShard(t, c, victim, doomKey)
	faultpoint.DisarmAll()

	// The supervisor pass is the recovery: detach, rebuild (empty — the
	// shards are in-memory), re-attach.
	c.SuperviseOnce()
	deadline := time.Now().Add(5 * time.Second)
	for c.State(victim) != memcached.ShardHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("victim shard never healthy after rebuild (state %v)", c.State(victim))
		}
		c.SuperviseOnce()
		time.Sleep(time.Millisecond)
	}
	if sm := c.Metrics().Supervisor; sm.Rebuilds < 1 {
		t.Fatalf("no rebuild recorded: %+v", sm)
	}

	// Full service on both sides of the rebuild.
	if v, _, err := survivor.Get(safeKey); err != nil || string(v) != "v0" {
		t.Fatalf("survivor key after rebuild = %q, %v", v, err)
	}
	if err := survivor.Set(doomKey, []byte("fresh"), 0, 0); err != nil {
		t.Fatalf("fresh write on rebuilt shard: %v", err)
	}
	if v, _, err := survivor.Get(doomKey); err != nil || string(v) != "fresh" {
		t.Fatalf("rebuilt shard get = %q, %v", v, err)
	}
	if _, err := c.Shard(victim).Allocator().Check(); err != nil {
		t.Fatalf("rebuilt heap verification: %v", err)
	}
}

func runFaultAt(t *testing.T, point string) {
	defer faultpoint.DisarmAll()
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes:    16 << 20,
		HashPower:    8, // 256 buckets: >384 items trigger expansion
		NumItemLocks: 16,
		MemLimit:     512 << 10, // small enough that the workload evicts
		CallTimeout:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	lib := book.Library()

	survivorProc, err := book.NewClientProcess(1001)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := survivorProc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	doomedProc, err := book.NewClientProcess(1002)
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := doomedProc.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	// Prime past the expansion threshold, plus same-width counters for
	// the in-place increment path. Armed only afterwards, so priming
	// cannot fire the point.
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	val := bytes.Repeat([]byte("v"), 256)
	const primed = 450
	for i := 0; i < primed; i++ {
		if err := survivor.Set(key(i), val, 0, 0); err != nil {
			t.Fatalf("priming: %v", err)
		}
	}
	ctr := func(i int) []byte { return []byte(fmt.Sprintf("ctr-%d", i)) }
	for i := 0; i < 8; i++ {
		if err := survivor.Set(ctr(i), []byte("500"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	var fired atomic.Bool
	if err := faultpoint.Arm(point, func() {
		fired.Store(true)
		doomedProc.Kill()
		panic("faultmatrix: injected crash at " + point)
	}); err != nil {
		t.Fatal(err)
	}

	// Drive a mixed workload through the doomed client, with maintenance
	// passes interleaved; one of them will step on the mine. Errors are
	// expected once the crash lands (ErrKilled, parked calls).
	for i := 0; i < 8000 && !fired.Load(); i++ {
		k := key(i % (2 * primed)) // half misses/new links, half overwrites
		switch i % 6 {
		case 0:
			_ = doomed.Set(k, val, 0, 0)
		case 1:
			_, _, _ = doomed.Get(k)
		case 2:
			_ = doomed.Delete(k)
		case 3:
			_, _ = doomed.Increment(ctr(i%8), 1) // same-width rewrite: 500 -> 501...
		case 4:
			_ = doomed.Set([]byte(fmt.Sprintf("new-%s-%d", point, i)), val, 0, 0)
		case 5:
			// A mixed batch: one crossing, several ops — the only arm that
			// can step on ops.batch.mid_dispatch (it fires between two ops
			// of the same batch), and a second road to the store points.
			_, _ = doomed.ExecBatch([]memcached.BatchOp{
				{Code: memcached.BatchSet, Key: k, Value: val},
				{Code: memcached.BatchIncr, Key: ctr(i % 8), Delta: 1},
				{Code: memcached.BatchGet, Key: k},
				{Code: memcached.BatchDelete, Key: k},
			})
		}
		if i%25 == 24 {
			book.RunMaintenanceOnce()
		}
	}
	if !fired.Load() {
		t.Fatalf("workload never reached fault point %s", point)
	}

	// Recovery must complete within the grace bound without poisoning.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if lib.Poisoned() {
			t.Fatalf("library poisoned after crash at %s", point)
		}
		if m := lib.Metrics(); m.Recoveries >= 1 && !lib.Recovering() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery within grace after crash at %s (recovering=%v)",
				point, lib.Recovering())
		}
		time.Sleep(time.Millisecond)
	}
	if _, repairs := book.LastRepair(); repairs < 1 {
		t.Fatalf("no repair pass recorded after crash at %s", point)
	}

	// The heap verifies.
	if _, err := book.Allocator().Check(); err != nil {
		t.Fatalf("heap verification after recovery: %v", err)
	}

	// The survivor gets full service: Get over the keyspace, and a
	// fresh Set/Get/MGet/Delete roundtrip.
	servedGets := 0
	for i := 0; i < primed; i++ {
		if v, _, err := survivor.Get(key(i)); err == nil {
			if !bytes.Equal(v, val) {
				t.Fatalf("%s corrupt after recovery", key(i))
			}
			servedGets++
		}
	}
	t.Logf("%s: survivor Get served %d/%d primed keys after repair", point, servedGets, primed)
	rt := []byte("roundtrip-" + point)
	if err := survivor.Set(rt, []byte("alive"), 0, 0); err != nil {
		t.Fatalf("post-recovery Set: %v", err)
	}
	res, err := survivor.MGet([][]byte{rt, key(1)})
	if err != nil || len(res) != 2 || !res[0].Found {
		t.Fatalf("post-recovery MGet: %v, %+v", err, res)
	}
	if err := survivor.Delete(rt); err != nil {
		t.Fatalf("post-recovery Delete: %v", err)
	}

	// A post-recovery batch rides one crossing with per-op errors isolated:
	// the Add on an existing key fails alone, its siblings all commit, and
	// the crossing itself reports no error.
	bkey := []byte("batch-" + point)
	bres, err := survivor.ExecBatch([]memcached.BatchOp{
		{Code: memcached.BatchSet, Key: bkey, Value: []byte("41")},
		{Code: memcached.BatchAdd, Key: bkey, Value: []byte("x")},
		{Code: memcached.BatchIncr, Key: bkey, Delta: 1},
		{Code: memcached.BatchGet, Key: bkey},
	})
	if err != nil {
		t.Fatalf("post-recovery ExecBatch: %v", err)
	}
	if !errors.Is(bres[1].Err, core.ErrExists) {
		t.Fatalf("post-recovery batch Add error = %v, want ErrExists", bres[1].Err)
	}
	if bres[0].Err != nil || bres[2].Err != nil || bres[3].Err != nil {
		t.Fatalf("post-recovery batch: Add's error leaked into siblings: %+v", bres)
	}
	if bres[2].Num != 42 || !bytes.Equal(bres[3].Value, []byte("42")) {
		t.Fatalf("post-recovery batch results: num=%d value=%q, want 42/\"42\"",
			bres[2].Num, bres[3].Value)
	}
	if err := survivor.Delete(bkey); err != nil {
		t.Fatalf("post-recovery batch cleanup: %v", err)
	}

	// Statistics are self-consistent with a full walk (no other actor is
	// running: doomed is dead, maintenance only runs when called).
	st := book.Stats()
	walked := survivor.Ctx().ForEach(func(*core.Entry) bool { return true })
	if uint64(walked) != st.CurrItems {
		t.Fatalf("CurrItems = %d but ForEach walked %d after recovery", st.CurrItems, walked)
	}
	if st.Recoveries < 1 {
		t.Fatalf("Stats().Recoveries = %d, want >= 1", st.Recoveries)
	}
}
