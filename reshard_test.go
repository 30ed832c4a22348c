package plibmc

// Live-resharding verification (ISSUE 9).
//
//   - TestModelCheckResize: the sharded mixed torture run with a live
//     4→6 resize injected mid-flight. Every op routes by the old ring
//     while segments stream, and by the new one after the cutover; the
//     merged history must linearize exactly and no client may see a
//     single crash-grade error.
//   - TestResizeCrashIsolation: the migrator is killed mid-segment
//     (migrate.mid_segment), and in a second round crashes *inside* a
//     gate crossing (ops.batch.mid_dispatch) so a shard must repair
//     online under the migration. Both times the shards stay healthy,
//     the migration resumes on a fresh attempt and completes, and every
//     key keeps its value — and, untouched keys, their CAS generation.
//   - TestClusterReopenAfterResize: the ring.json manifest overrides a
//     stale caller config, so a resized directory reopens at its grown
//     geometry with every key in place.
//   - runMigrateFaultAt: the fault-matrix entry for migrate.* points.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/faultpoint"
	"plibmc/internal/linearcheck"
	"plibmc/internal/model"
	"plibmc/internal/ring"
	"plibmc/memcached"
)

// TestModelCheckResize: the cluster torture workload of
// TestModelCheckSharded with a Resize(4→6) launched while the workers
// are mid-flight. Every key's history must stay linearizable across the
// cutover: a key is served by its old shard until the final recopy
// completes under routeMu's write lock, and by its new shard after —
// never neither, never both. FlushAll stays excluded, as in the
// steady-state sharded run.
func TestModelCheckResize(t *testing.T) {
	opBudget := *modelcheckOps
	if testing.Short() {
		opBudget = 3000
	}
	const nShards, newShards, nProcs, perProc = 4, 6, 2, 4
	workers := nProcs * perProc

	c, err := memcached.CreateCluster(memcached.ClusterConfig{
		Shards: nShards,
		Store: memcached.Config{
			HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16,
		},
		// Via the config, not per-shard SetClock: the resize mints two new
		// shards mid-run and they must come up frozen too.
		Clock: func() int64 { return mcFrozenNow },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	rec := linearcheck.NewRecorder(workers)
	var ws []*mcWorker
	for p := 0; p < nProcs; p++ {
		cc, err := c.NewClientProcess(1000 + p)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < perProc; s++ {
			sess, err := cc.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, newMCWorker(t, sess, rec, len(ws), *modelcheckSeed, false))
		}
	}

	keys := mcGeneralKeys()
	perWorker := opBudget / workers
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *mcWorker) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ok := w.step(keys, false)
				if ok && w.rng.Intn(4) == 0 {
					ok = w.doBatch(keys) // batches span several moving segments at once
				}
				if !ok {
					w.t.Errorf("worker %d died", w.id)
					return
				}
			}
		}(w)
	}

	// Let the workload get going, then resize under it.
	time.Sleep(10 * time.Millisecond)
	if err := c.Resize(newShards); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if err := c.WaitResize(120 * time.Second); err != nil {
		t.Fatalf("resize did not complete: %v", err)
	}
	wg.Wait()

	if got := c.Ring().Shards(); got != newShards {
		t.Fatalf("ring advanced to %d shards, want %d", got, newShards)
	}
	st := c.MigrationStatus()
	if st.Active || st.Error != "" || st.SegmentsDone != st.SegmentsTotal {
		t.Fatalf("terminal migration status: %+v", st)
	}
	t.Logf("resize %d→%d: %d segments, %d keys moved, %d retries",
		st.FromShards, st.ToShards, st.SegmentsTotal, st.KeysMoved, st.Retries)

	// The old shards must all have served, and the heap of every shard —
	// including the two minted mid-run — must verify.
	for i := 0; i < c.Shards(); i++ {
		if i < nShards {
			s := c.Shard(i).Stats()
			if s.Gets+s.Sets == 0 {
				t.Fatalf("shard %d saw no traffic; ring routing is degenerate", i)
			}
		}
		if _, err := c.Shard(i).Allocator().Check(); err != nil {
			t.Fatalf("shard %d heap after resize: %v", i, err)
		}
	}

	hist := rec.History()
	if len(hist) < opBudget {
		t.Fatalf("recorded only %d ops, want >= %d", len(hist), opBudget)
	}
	mcCheck(t, hist, &model.Model{MaxValueLen: core.MaxValueLen})
	assertSingleOwner(t, c)
}

// assertSingleOwner walks every attached shard and requires the
// authoritative ring to place each live entry on the shard holding it: a
// key exists on its one owner and nowhere else.
func assertSingleOwner(t *testing.T, c *memcached.Cluster) {
	t.Helper()
	r := c.Ring()
	for i := 0; i < c.Shards(); i++ {
		ctx := c.Shard(i).Store().NewCtx(uint64(1)<<43 | uint64(i+1))
		ctx.ForEach(func(e *core.Entry) bool {
			if owner := r.Owner(ring.Hash(e.Key)); owner != i {
				t.Errorf("key %q sits on shard %d; the ring places it on shard %d", e.Key, i, owner)
			}
			return true
		})
		ctx.Close()
	}
}

// reshardSeedKeys loads n keys with deterministic values and returns the
// CAS generation each was stored under.
func reshardSeedKeys(t *testing.T, s *memcached.ClusterSession, n int) map[string]uint64 {
	t.Helper()
	cas := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("mig-key-%05d", i)
		if err := s.Set([]byte(k), []byte("v1-"+k), 7, 0); err != nil {
			t.Fatalf("seed %s: %v", k, err)
		}
		_, _, c, err := s.Gets([]byte(k))
		if err != nil {
			t.Fatalf("seed gets %s: %v", k, err)
		}
		cas[k] = c
	}
	return cas
}

// reshardVerifyKeys asserts every seeded key serves its expected value;
// keys absent from updated must also have kept their pre-migration CAS
// generation (the move preserves generations verbatim).
func reshardVerifyKeys(t *testing.T, s *memcached.ClusterSession, casBefore map[string]uint64, updated map[string]string) {
	t.Helper()
	for k, c0 := range casBefore {
		v, f, c1, err := s.Gets([]byte(k))
		if err != nil {
			t.Fatalf("key %s lost across migration: %v", k, err)
		}
		if want, ok := updated[k]; ok {
			if string(v) != want {
				t.Fatalf("key %s = %q, want mid-migration update %q", k, v, want)
			}
			continue
		}
		if string(v) != "v1-"+k || f != 7 {
			t.Fatalf("key %s = %q flags %d, want seeded value", k, v, f)
		}
		if c1 != c0 {
			t.Fatalf("key %s CAS %d → %d across migration; moves must preserve generations", k, c0, c1)
		}
	}
}

// TestResizeCrashIsolation: two migrator deaths at the worst moments.
//
// Round 1 — killed between batches: the migrate.mid_segment handler
// kills the migrator's client processes and panics, after part of a
// segment has been installed on its destination but before cutover. No
// gate is held (the point sits between crossings), so both shards stay
// healthy with no repair; a fresh attempt re-walks and completes, while
// clients keep reading and writing — including writes into the torn
// segment, which the cutover recopy must carry over.
//
// Round 2 — crashed inside a crossing: ops.batch.mid_dispatch fires in
// the middle of one of the migrator's own export/install batches, and
// the migrator's client process is killed at the same instant (the
// fault matrix's crash model: repair only reclaims locks whose owner is
// dead — a live pid might merely be slow). The crash unwinds through
// the trampoline with the gate held; the shard must repair online
// (Recoveries ≥ 1) and the migration again resumes and completes. No
// client traffic runs while the point is armed, so only a migrator
// crossing can step on it.
func TestResizeCrashIsolation(t *testing.T) {
	defer faultpoint.DisarmAll()
	const nKeys = 2000
	c, err := memcached.CreateCluster(memcached.ClusterConfig{
		Shards:       2,
		VirtualNodes: 8, // few, fat segments: every nonempty one spans many keys
		Store: memcached.Config{
			HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	cc, err := c.NewClientProcess(2001)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	casBefore := reshardSeedKeys(t, sess, nKeys)

	// Round 1: die between copy batches, mid-segment.
	var fired atomic.Bool
	if err := faultpoint.Arm("migrate.mid_segment", func() {
		fired.Store(true)
		c.KillMigrator()
		panic("injected: migrator killed mid-segment")
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Resize(3); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !fired.Load() {
		if time.Now().After(deadline) {
			t.Fatal("migration never reached migrate.mid_segment")
		}
		time.Sleep(time.Millisecond)
	}
	// Both original shards keep serving, un-repaired, while the torn
	// migration is still live.
	for i := 0; i < 2; i++ {
		if st := c.State(i); st != memcached.ShardHealthy {
			t.Fatalf("shard %d state %d after mid-segment kill, want healthy", i, st)
		}
	}
	// Client writes land during the (restarting) migration; the cutover
	// recopy must carry them wherever their segments end up.
	updated := make(map[string]string, 64)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("mig-key-%05d", i*17%nKeys)
		v := "v2-" + k
		if err := sess.Set([]byte(k), []byte(v), 7, 0); err != nil {
			t.Fatalf("mid-migration write %s: %v", k, err)
		}
		updated[k] = v
	}
	if err := c.WaitResize(60 * time.Second); err != nil {
		t.Fatalf("migration did not recover from mid-segment kill: %v", err)
	}
	st := c.MigrationStatus()
	if st.Retries < 1 {
		t.Fatalf("migration completed without retrying after a kill: %+v", st)
	}
	if got := c.Ring().Shards(); got != 3 {
		t.Fatalf("ring = %d shards after round 1, want 3", got)
	}
	for k := range updated {
		delete(casBefore, k) // updates minted fresh generations
	}
	reshardVerifyKeys(t, sess, casBefore, updated)
	assertSingleOwner(t, c)

	// Round 2: crash inside a migrator crossing; a shard repairs online.
	faultpoint.DisarmAll()
	if err := faultpoint.Arm("ops.batch.mid_dispatch", func() {
		c.KillMigrator()
		panic("injected: migrator crashes inside its export/install crossing")
	}); err != nil {
		t.Fatal(err)
	}
	recoveriesBefore := uint64(0)
	for i := 0; i < c.Shards(); i++ {
		recoveriesBefore += c.Shard(i).Library().Metrics().Recoveries
	}
	if err := c.Resize(4); err != nil {
		t.Fatalf("Resize round 2: %v", err)
	}
	if err := c.WaitResize(60 * time.Second); err != nil {
		t.Fatalf("migration did not recover from in-crossing crash: %v", err)
	}
	recoveries := uint64(0)
	for i := 0; i < c.Shards(); i++ {
		recoveries += c.Shard(i).Library().Metrics().Recoveries
	}
	if recoveries <= recoveriesBefore {
		t.Fatalf("no online repair recorded: recoveries %d → %d", recoveriesBefore, recoveries)
	}
	if st := c.MigrationStatus(); st.Retries < 1 || st.Error != "" {
		t.Fatalf("round 2 terminal status: %+v", st)
	}
	if got := c.Ring().Shards(); got != 4 {
		t.Fatalf("ring = %d shards after round 2, want 4", got)
	}
	// The second migration's updates set is empty: verify against the
	// post-round-1 state (re-capture generations first).
	sess2, err := cc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for k := range casBefore {
		v, _, err := sess2.Get([]byte(k))
		if err != nil || !bytes.Equal(v, []byte("v1-"+k)) {
			t.Fatalf("key %s after round 2: %q, %v", k, v, err)
		}
	}
	for k, want := range updated {
		v, _, err := sess2.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("updated key %s after round 2: %q, %v", k, v, err)
		}
	}
	for i := 0; i < c.Shards(); i++ {
		if stt := c.State(i); stt != memcached.ShardHealthy {
			t.Fatalf("shard %d state %d at end, want healthy", i, stt)
		}
		if _, err := c.Shard(i).Allocator().Check(); err != nil {
			t.Fatalf("shard %d heap after crash rounds: %v", i, err)
		}
	}
	assertSingleOwner(t, c)
}

// TestClusterReopenAfterResize: a resized directory reopens onto the
// grown ring regardless of the caller's stale shard count — ring.json is
// authoritative — with every key served from its post-resize owner.
func TestClusterReopenAfterResize(t *testing.T) {
	dir := t.TempDir()
	cfg := memcached.ClusterConfig{
		Shards: 2,
		Dir:    dir,
		Store: memcached.Config{
			HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16,
		},
	}
	c, err := memcached.CreateCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := c.NewClientProcess(2002)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	casBefore := reshardSeedKeys(t, s, 500)
	if err := c.Resize(4); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitResize(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	c2, err := memcached.OpenCluster(cfg) // cfg still says 2 shards
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Shutdown()
	if got := c2.Ring().Shards(); got != 4 {
		t.Fatalf("reopened ring = %d shards, want 4 from the manifest", got)
	}
	cc2, err := c2.NewClientProcess(2003)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cc2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	reshardVerifyKeys(t, s2, casBefore, nil)
	assertSingleOwner(t, c2)
}

// runMigrateFaultAt is the fault matrix's migrate.* entry: kill the
// migrator exactly at the armed point and assert the resize survives —
// shards healthy, migration resumed and completed, no key lost.
func runMigrateFaultAt(t *testing.T, point string) {
	defer faultpoint.DisarmAll()
	c, err := memcached.CreateCluster(memcached.ClusterConfig{
		Shards:       2,
		VirtualNodes: 8,
		Store: memcached.Config{
			HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	cc, err := c.NewClientProcess(2004)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	casBefore := reshardSeedKeys(t, s, 600)
	var fired atomic.Bool
	if err := faultpoint.Arm(point, func() {
		fired.Store(true)
		c.KillMigrator()
		panic("faultmatrix: migrator killed at " + point)
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Resize(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitResize(60 * time.Second); err != nil {
		t.Fatalf("migration did not survive crash at %s: %v", point, err)
	}
	if !fired.Load() {
		t.Fatalf("workload never reached fault point %s", point)
	}
	if st := c.MigrationStatus(); st.Retries < 1 {
		t.Fatalf("no retry recorded after crash at %s: %+v", point, st)
	}
	for i := 0; i < c.Shards(); i++ {
		if stt := c.State(i); stt != memcached.ShardHealthy {
			t.Fatalf("shard %d state %d after crash at %s", i, stt, point)
		}
	}
	reshardVerifyKeys(t, s, casBefore, nil)
}
