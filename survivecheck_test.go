package plibmc

// The shard-lifecycle survival gate (make survivecheck): an unrepairable
// crash — a client killed mid-mutation whose repair pass itself fails —
// poisons one shard of a 4-shard cluster. The supervisor must rebuild it
// with no operator action while the surviving shards serve a full mixed
// workload with zero errors, and the merged survivor history must
// linearize exactly. The rebuilt shard reopens from its checkpoint and
// resumes past the dead heap's CAS high-water mark, so fresh writes mint
// tokens no pre-crash client ever observed.
//
// BenchmarkRebuildSurvivor (make survivecheck) is the latency half of the
// claim: survivor p99 during the poison → rebuild window, self-gated at
// 2x the quiet baseline.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/faultpoint"
	"plibmc/internal/linearcheck"
	"plibmc/internal/model"
	"plibmc/memcached"
)

// stepOn is the survivor mix restricted to an explicit key set — unlike
// step it never touches the shared counter keys, so survivors can be
// confined to shards the doomed client will not crash.
func (w *mcWorker) stepOn(keys []string) bool {
	key := w.pickGeneral(keys)
	switch p := w.rng.Intn(100); {
	case p < 35:
		return w.doGets(key)
	case p < 45:
		n := 2 + w.rng.Intn(3)
		batch := make([]string, n)
		for i := range batch {
			batch[i] = w.pickGeneral(keys)
		}
		return w.doMGet(batch)
	case p < 65:
		return w.doStore(model.Set, key, w.val(), 0)
	case p < 72:
		return w.doStore(model.Add, key, w.val(), 0)
	case p < 80:
		return w.doStore(model.CAS, key, w.val(), 0)
	case p < 88:
		return w.doDelete(key)
	case p < 94:
		return w.doPend(key, append([]byte("+"), w.val()...), false)
	default:
		return w.doGAT(key, mcFarExpiry)
	}
}

// readStepOn is the read-only form for the armed-crash window, where a
// survivor mutation could consume the one-shot fault handler meant for
// the doomed client.
func (w *mcWorker) readStepOn(keys []string) bool {
	if w.rng.Intn(4) == 0 {
		n := 2 + w.rng.Intn(3)
		batch := make([]string, n)
		for i := range batch {
			batch[i] = w.pickGeneral(keys)
		}
		return w.doMGet(batch)
	}
	return w.doGets(w.pickGeneral(keys))
}

// poisonClusterShard drives the victim shard into the poisoned state: a
// doomed client is killed at ops.store.mid_swap and the repair pass is
// made to fail (recover.repair_fail), which is hodor's terminal rung.
func poisonClusterShard(tb testing.TB, c *memcached.Cluster, victim int, doomKey []byte) {
	tb.Helper()
	if err := faultpoint.Arm("recover.repair_fail", func() {
		panic("survivecheck: injected unrepairable repair")
	}); err != nil {
		tb.Fatal(err)
	}
	dcc, err := c.NewClientProcess(6000)
	if err != nil {
		tb.Fatal(err)
	}
	dsess, err := dcc.NewSession()
	if err != nil {
		tb.Fatal(err)
	}
	var fired atomic.Bool
	if err := faultpoint.Arm("ops.store.mid_swap", func() {
		fired.Store(true)
		dcc.Proc(victim).Kill()
		panic("survivecheck: injected crash at ops.store.mid_swap")
	}); err != nil {
		tb.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !fired.Load() {
		dsess.Set(doomKey, []byte("doomed"), 0, 0) //nolint:errcheck // dies by design
		if time.Now().After(deadline) {
			tb.Fatal("doomed mutations never reached ops.store.mid_swap")
		}
	}
	lib := c.Shard(victim).Library()
	for !lib.Poisoned() {
		if time.Now().After(deadline) {
			tb.Fatal("victim shard never poisoned after the failed repair")
		}
		time.Sleep(time.Millisecond)
	}
}

func surviveClusterConfig(dir string) memcached.ClusterConfig {
	return memcached.ClusterConfig{
		Shards:          4,
		Dir:             dir,
		BreakerCooldown: 10 * time.Millisecond,
		Store: memcached.Config{
			HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16,
			CallTimeout: 50 * time.Millisecond, RecoveryGrace: 100 * time.Millisecond,
		},
	}
}

func TestSurviveCheckAutoRebuild(t *testing.T) {
	defer faultpoint.DisarmAll()
	c, err := memcached.CreateCluster(surviveClusterConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	for i := 0; i < c.Shards(); i++ {
		c.Shard(i).Store().SetClock(func() int64 { return mcFrozenNow })
	}

	// The victim is wherever the doom key lands; survivors are confined
	// to keys the ring places on the other three shards.
	doomKey := []byte("doom-key-0")
	victim := c.ShardFor(doomKey)
	var safeKeys []string
	for i := 0; len(safeKeys) < 16; i++ {
		k := fmt.Sprintf("sv%03d", i)
		if c.ShardFor([]byte(k)) != victim {
			safeKeys = append(safeKeys, k)
		}
	}

	const nWorkers = 6
	rec := linearcheck.NewRecorder(nWorkers)
	var ws []*mcWorker
	for p := 0; p < 2; p++ {
		cc, err := c.NewClientProcess(1000 + p)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < nWorkers/2; s++ {
			sess, err := cc.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, newMCWorker(t, sess, rec, len(ws), *modelcheckSeed, false))
		}
	}
	runPhase := func(name string, step func(*mcWorker) bool, minSteps int, done func() bool) {
		t.Helper()
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *mcWorker) {
				defer wg.Done()
				for i := 0; i < minSteps || (done != nil && !done()); i++ {
					if !step(w) {
						w.t.Errorf("%s: survivor %d died", name, w.id)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	// Phase 1 — healthy mix, then checkpoint the victim so the rebuild
	// ladder has an image to reopen.
	if err := ws[0].s.Set(doomKey, []byte("seed"), 0, 0); err != nil {
		t.Fatal(err)
	}
	runPhase("warmup", func(w *mcWorker) bool { return w.stepOn(safeKeys) }, 300, nil)
	if err := c.Shard(victim).Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Phase 2 — survivors read under the armed crash while the doomed
	// client is killed mid-mutation and the failed repair poisons the
	// victim.
	var poisonWG sync.WaitGroup
	poisoned := make(chan struct{})
	poisonWG.Add(1)
	go func() {
		defer poisonWG.Done()
		poisonClusterShard(t, c, victim, doomKey)
		close(poisoned)
	}()
	runPhase("crash-window", func(w *mcWorker) bool { return w.readStepOn(safeKeys) }, 50, func() bool {
		select {
		case <-poisoned:
			return true
		default:
			return false
		}
	})
	poisonWG.Wait()
	faultpoint.DisarmAll()
	preCAS := c.Shard(victim).Store().CASCounter()

	// Phase 3 — the supervisor, on its own clock, detects the poison and
	// runs the ladder while survivors keep mixing. No operator action.
	rebuildStart := time.Now()
	c.StartSupervisor(5 * time.Millisecond)
	rebuilt := func() bool {
		return c.Metrics().Supervisor.Rebuilds >= 1 && c.State(victim) == memcached.ShardHealthy
	}
	runPhase("rebuild-window", func(w *mcWorker) bool { return w.stepOn(safeKeys) }, 100, rebuilt)
	deadline := time.Now().Add(10 * time.Second)
	for !rebuilt() {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never rebuilt the poisoned shard")
		}
		time.Sleep(time.Millisecond)
	}
	timeToRebuild := time.Since(rebuildStart)
	c.StopSupervisor()

	// The rebuilt shard: reopened from the checkpoint (not empty), CAS
	// space strictly past the dead heap's mark, serving fresh writes.
	sm := c.Metrics().Supervisor
	if sm.RebuiltEmpty != 0 {
		t.Fatalf("rebuild ignored the checkpoint image: %+v", sm)
	}
	if got := c.Shard(victim).Store().CASCounter(); got <= preCAS {
		t.Fatalf("rebuilt CAS seed %d not past pre-crash mark %d", got, preCAS)
	}
	fcc, err := c.NewClientProcess(2000)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fcc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if v, _, err := fs.Get(doomKey); err != nil || string(v) != "seed" {
		t.Fatalf("checkpointed key after rebuild = %q %v", v, err)
	}
	if err := fs.Set(doomKey, []byte("fresh"), 0, 0); err != nil {
		t.Fatalf("fresh write on rebuilt shard: %v", err)
	}
	if _, _, cas, err := fs.Gets(doomKey); err != nil || cas <= preCAS {
		t.Fatalf("post-rebuild mint %d (err %v) not past pre-crash mark %d", cas, err, preCAS)
	}

	// The survivors' merged history — spanning the crash, the poison
	// window, and the rebuild — linearizes exactly. Worker errors already
	// failed the test via t.Errorf (zero survivor errors is the gate).
	hist := rec.History()
	res := mcCheck(t, hist, &model.Model{MaxValueLen: core.MaxValueLen})
	t.Logf("victim shard %d auto-rebuilt in %v (ladder itself %v); %d survivor ops linearized across the outage",
		victim, timeToRebuild, sm.LastRebuildDuration, res.Ops)
	assertSingleOwner(t, c)
}

// BenchmarkRebuildSurvivor (make survivecheck): survivor-shard p99 while
// the victim shard is poisoned and auto-rebuilt, self-gated at 2x the
// quiet baseline (with a floor for scheduler noise).
func BenchmarkRebuildSurvivor(b *testing.B) {
	defer faultpoint.DisarmAll()
	c, err := memcached.CreateCluster(surviveClusterConfig(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Shutdown()

	doomKey := []byte("doom-key-0")
	victim := c.ShardFor(doomKey)
	var safe [][]byte
	for i := 0; len(safe) < 256; i++ {
		k := []byte(fmt.Sprintf("bk%04d", i))
		if c.ShardFor(k) != victim {
			safe = append(safe, k)
		}
	}

	const nWell = 4
	var well []*memcached.ClusterSession
	for p := 0; p < 2; p++ {
		cc, err := c.NewClientProcess(1000 + p)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < nWell/2; s++ {
			sess, err := cc.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			well = append(well, sess)
		}
	}
	val := make([]byte, 128)
	for _, k := range safe {
		if err := well[0].Set(k, val, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := well[0].Set(doomKey, val, 0, 0); err != nil {
		b.Fatal(err)
	}
	if err := c.Shard(victim).Checkpoint(); err != nil {
		b.Fatal(err)
	}

	// measure runs the survivor 95/5 mix for d and returns its p99.
	measure := func(d time.Duration) time.Duration {
		var mu sync.Mutex
		var lats []time.Duration
		var wg sync.WaitGroup
		end := time.Now().Add(d)
		for wi, s := range well {
			wg.Add(1)
			go func(wi int, s *memcached.ClusterSession) {
				defer wg.Done()
				var local []time.Duration
				for i := 0; time.Now().Before(end); i++ {
					key := safe[(wi*67+i)%len(safe)]
					t0 := time.Now()
					var err error
					if i%20 == 0 {
						err = s.Set(key, val, 0, 0)
					} else {
						_, _, err = s.Get(key)
					}
					if err != nil {
						b.Errorf("survivor call failed: %v", err)
						return
					}
					local = append(local, time.Since(t0))
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			}(wi, s)
		}
		wg.Wait()
		if len(lats) == 0 {
			b.Fatal("no latencies recorded")
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)*99/100]
	}

	base := measure(300 * time.Millisecond)

	poisonClusterShard(b, c, victim, doomKey)
	faultpoint.DisarmAll()
	rebuildStart := time.Now()
	c.StartSupervisor(2 * time.Millisecond)
	defer c.StopSupervisor()

	// Time the rebuild on its own goroutine: read after the measurement
	// window it could never come out below the window's 300 ms.
	rebuilt := make(chan time.Duration, 1)
	go func() {
		for c.Metrics().Supervisor.Rebuilds < 1 && time.Since(rebuildStart) < 10*time.Second {
			time.Sleep(time.Millisecond)
		}
		rebuilt <- time.Since(rebuildStart)
	}()

	// The measurement window covers the poison → rebuild transition.
	during := measure(300 * time.Millisecond)

	rebuildTook := <-rebuilt
	if c.Metrics().Supervisor.Rebuilds < 1 {
		b.Fatal("supervisor never rebuilt the victim during the benchmark window")
	}
	b.ReportMetric(float64(base.Nanoseconds())/1e3, "p99-base-us")
	b.ReportMetric(float64(during.Nanoseconds())/1e3, "p99-rebuild-us")
	b.ReportMetric(float64(rebuildTook.Nanoseconds())/1e6, "rebuild-ms")

	limit := 2 * base
	if floor := 150 * time.Microsecond; limit < floor {
		limit = floor
	}
	if during > limit {
		b.Fatalf("survivor p99 during rebuild = %v, limit %v (base %v): the victim's rebuild leaked into survivor latency",
			during, limit, base)
	}
}
