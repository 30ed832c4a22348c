package memcached

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/faultpoint"
	"plibmc/internal/hodor"
	"plibmc/internal/ring"
	"plibmc/internal/shm"
)

// keyOwnedBy returns a key the placement ring routes to the given shard.
func keyOwnedBy(t testing.TB, c *Cluster, shard int, prefix string) []byte {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := []byte(fmt.Sprintf("%s-%d", prefix, i))
		if c.ShardFor(k) == shard {
			return k
		}
	}
	t.Fatalf("ring never routed a %q key to shard %d", prefix, shard)
	return nil
}

// poisonShard forces an unrepairable crash on the victim shard: a doomed
// client is killed mid-mutation (ops.store.mid_swap) and the repair pass
// itself is made to fail (recover.repair_fail), so hodor's ladder ends in
// poison — the state the supervisor exists to clear.
func poisonShard(t *testing.T, c *Cluster, victim int) {
	t.Helper()
	if err := faultpoint.Arm("recover.repair_fail", func() {
		panic("supervisor_test: injected unrepairable repair")
	}); err != nil {
		t.Fatal(err)
	}
	dcc, err := c.NewClientProcess(6000 + victim)
	if err != nil {
		t.Fatal(err)
	}
	dsess, err := dcc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Bool
	if err := faultpoint.Arm("ops.store.mid_swap", func() {
		fired.Store(true)
		dcc.Proc(victim).Kill()
		panic("supervisor_test: injected crash at ops.store.mid_swap")
	}); err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, c, victim, "doom")
	deadline := time.Now().Add(10 * time.Second)
	for !fired.Load() {
		dsess.Set(key, []byte("doomed"), 0, 0) //nolint:errcheck // dies by design
		if time.Now().After(deadline) {
			t.Fatal("doomed mutations never reached ops.store.mid_swap")
		}
	}
	lib := c.Shard(victim).Library()
	for !lib.Poisoned() {
		if time.Now().After(deadline) {
			t.Fatal("victim shard never poisoned after the failed repair")
		}
		time.Sleep(time.Millisecond)
	}
}

// assertSingleOwner walks every attached shard and requires the
// authoritative ring to place each live entry on the shard holding it: a
// key exists on its one owner and nowhere else.
func assertSingleOwner(t *testing.T, c *Cluster) {
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

func supervisorTestConfig() ClusterConfig {
	return ClusterConfig{
		Store: Config{
			HeapBytes: 16 << 20, HashPower: 8, NumItemLocks: 16,
			CallTimeout: 50 * time.Millisecond, RecoveryGrace: 200 * time.Millisecond,
		},
	}
}

// The tentpole claim, in-memory form: a poisoned shard with no backing
// image is detached, rebuilt empty, and re-attached by one supervisor
// pass — no operator action — while survivors keep their data; existing
// handles re-attach and the rebuilt shard serves fresh writes with CAS
// tokens seeded past the dead store's high-water mark.
func TestSupervisorRebuildsPoisonedShardEmpty(t *testing.T) {
	defer faultpoint.DisarmAll()
	c := newTestCluster(t, 4, supervisorTestConfig())
	s := newClusterSession(t, c)

	perShard := make([][]string, 4)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("sup%03d", i)
		if err := s.Set([]byte(key), []byte("v0"), 0, 0); err != nil {
			t.Fatal(err)
		}
		sh := c.ShardFor([]byte(key))
		perShard[sh] = append(perShard[sh], key)
	}
	const victim = 0
	if len(perShard[victim]) < 2 {
		t.Fatalf("victim shard owns %d keys; ring routing is degenerate", len(perShard[victim]))
	}

	old := c.Shard(victim)
	poisonShard(t, c, victim)
	preCAS := old.Store().CASCounter()
	if st := c.State(victim); st != ShardPoisoned {
		t.Fatalf("state after failed repair = %d, want poisoned", st)
	}

	// Before the supervisor runs: the first call pays the gate's poison
	// verdict and trips the breaker; the second fails fast with the typed
	// retryable error.
	if _, _, err := s.Get([]byte(perShard[victim][0])); err == nil {
		t.Fatal("get on poisoned shard succeeded")
	}
	if _, _, err := s.Get([]byte(perShard[victim][1])); !errors.Is(err, ErrShardDown) {
		t.Fatalf("second get = %v, want breaker fast-fail", err)
	}

	c.SuperviseOnce(time.Now())

	if c.Shard(victim) == old {
		t.Fatal("supervisor did not replace the poisoned bookkeeper")
	}
	if st := c.State(victim); st != ShardHealthy {
		t.Fatalf("state after rebuild = %d, want healthy", st)
	}
	m := c.supervisorMetrics()
	if m.Rebuilds != 1 || m.RebuiltEmpty != 1 {
		t.Fatalf("rebuilds=%d rebuiltEmpty=%d, want 1/1", m.Rebuilds, m.RebuiltEmpty)
	}
	if got := c.Shard(victim).Store().CASCounter(); got < preCAS+casRebuildGap {
		t.Fatalf("rebuilt CAS seed %d not past pre-crash mark %d + gap", got, preCAS)
	}

	// The survivor session re-attaches to the replacement transparently.
	key := []byte(perShard[victim][0])
	if _, _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rebuilt-empty shard get = %v, want ErrNotFound", err)
	}
	if err := s.Set(key, []byte("fresh"), 0, 0); err != nil {
		t.Fatalf("fresh write on rebuilt shard: %v", err)
	}
	if v, _, err := s.Get(key); err != nil || string(v) != "fresh" {
		t.Fatalf("fresh read on rebuilt shard = %q %v", v, err)
	}
	// No CAS ABA: every token minted after the rebuild is strictly past
	// every token minted before the crash.
	if _, _, cas, err := s.Gets(key); err != nil || cas <= preCAS {
		t.Fatalf("rebuilt shard minted cas %d (err %v), want > pre-crash %d", cas, err, preCAS)
	}

	// Survivor shards never lost a byte.
	for sh, keys := range perShard {
		if sh == victim {
			continue
		}
		for _, k := range keys {
			if v, _, err := s.Get([]byte(k)); err != nil || string(v) != "v0" {
				t.Fatalf("survivor shard %d lost %s: %q %v", sh, k, v, err)
			}
		}
	}
	st := c.ShardStatuses()[victim]
	if st.Breaker != "closed" || st.Rebuilds != 1 || st.BreakerTrips == 0 {
		t.Fatalf("victim status after rebuild = %+v", st)
	}
	assertSingleOwner(t, c)
}

// The full ladder: a Dir-backed victim with a checkpoint reopens from its
// best image — pre-checkpoint data survives the unrepairable crash,
// post-checkpoint writes are lost (the documented delta), and the CAS
// space still moves strictly forward past the dead heap's mark, which
// includes the lost writes' mints.
func TestSupervisorRebuildsFromCheckpoint(t *testing.T) {
	defer faultpoint.DisarmAll()
	cfg := supervisorTestConfig()
	cfg.Dir = t.TempDir()
	c := newTestCluster(t, 2, cfg)
	s := newClusterSession(t, c)

	const victim = 0
	var prePost [2][]string // victim-owned keys, [0] pre-checkpoint, [1] post
	for i := 0; i < 120; i++ {
		key := fmt.Sprintf("pre%03d", i)
		if err := s.Set([]byte(key), []byte("v0"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if c.ShardFor([]byte(key)) == victim {
			prePost[0] = append(prePost[0], key)
		}
	}
	if err := c.Shard(victim).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("post%03d", i)
		if err := s.Set([]byte(key), []byte("v1"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if c.ShardFor([]byte(key)) == victim {
			prePost[1] = append(prePost[1], key)
		}
	}
	if len(prePost[0]) == 0 || len(prePost[1]) == 0 {
		t.Fatalf("victim owns %d pre / %d post keys; need both", len(prePost[0]), len(prePost[1]))
	}

	poisonShard(t, c, victim)
	preCAS := c.Shard(victim).Store().CASCounter()
	c.SuperviseOnce(time.Now())

	if st := c.State(victim); st != ShardHealthy {
		t.Fatalf("state after rebuild = %d, want healthy", st)
	}
	m := c.supervisorMetrics()
	if m.Rebuilds != 1 || m.RebuiltEmpty != 0 {
		t.Fatalf("rebuilds=%d rebuiltEmpty=%d, want a from-image rebuild", m.Rebuilds, m.RebuiltEmpty)
	}
	for _, k := range prePost[0] {
		if v, _, err := s.Get([]byte(k)); err != nil || string(v) != "v0" {
			t.Fatalf("pre-checkpoint key %s after rebuild = %q %v", k, v, err)
		}
	}
	for _, k := range prePost[1] {
		if _, _, err := s.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("post-checkpoint key %s after rebuild = %v, want lost", k, err)
		}
	}
	// The image's CAS counter predates the lost writes, but the rebuilt
	// shard's seed must not: tokens minted for the lost writes can never
	// be re-minted.
	if got := c.Shard(victim).Store().CASCounter(); got < preCAS+casRebuildGap {
		t.Fatalf("rebuilt CAS seed %d not past pre-crash mark %d", got, preCAS)
	}
	k := []byte(prePost[1][0])
	if err := s.Set(k, []byte("fresh"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, cas, err := s.Gets(k); err != nil || cas <= preCAS {
		t.Fatalf("post-rebuild mint %d (err %v), want > %d", cas, err, preCAS)
	}
	assertSingleOwner(t, c)
}

// The breaker's full state machine, driven on the supervisor's injectable
// clock: consecutive crossing failures open it, the cooldown half-opens
// it, exactly one probe is admitted, a failed probe re-opens, a clean
// probe closes, and a poison verdict trips instantly.
func TestBreakerStateMachine(t *testing.T) {
	cfg := ClusterConfig{BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond}
	c := newTestCluster(t, 1, cfg)
	h := c.shardHealth(0)
	// Attend the cluster up front: this test drives every clock transition
	// explicitly, so the unsupervised data-path fallback (which reads the
	// real clock) must stay out of the way.
	c.SuperviseOnce(time.Now())

	if err := c.shardAllow(0); err != nil {
		t.Fatalf("closed breaker refused: %v", err)
	}
	c.shardReport(0, nil)
	c.shardReport(0, hodor.ErrRecoveryTimeout)
	if h.br.state.Load() != breakerClosed {
		t.Fatal("one failure below threshold opened the breaker")
	}
	c.shardReport(0, hodor.ErrRecoveryTimeout)
	if h.br.state.Load() != breakerOpen {
		t.Fatal("threshold run of failures did not open the breaker")
	}
	err := c.shardAllow(0)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("open breaker allow = %v, want ErrShardDown", err)
	}
	if f, ok := ShardDownFrame(err); !ok || f != "shard 0 recovering" {
		t.Fatalf("frame = %q %v", f, ok)
	}
	// Retryable, not session-fatal: pools must not churn on it.
	if sessionFatal(err) {
		t.Fatal("breaker fast-fail classified session-fatal")
	}
	if !hodor.Retryable(errors.Unwrap(err)) {
		t.Fatal("recovering fast-fail must unwrap to a retryable gate error")
	}

	// Cooldown runs on the supervisor's clock: first pass stamps, a pass
	// inside the window holds, a pass past it half-opens.
	t0 := time.Now()
	c.SuperviseOnce(t0)
	if h.br.state.Load() != breakerOpen {
		t.Fatal("stamping pass changed state")
	}
	c.SuperviseOnce(t0.Add(49 * time.Millisecond))
	if h.br.state.Load() != breakerOpen {
		t.Fatal("breaker half-opened inside the cooldown")
	}
	c.SuperviseOnce(t0.Add(51 * time.Millisecond))
	if h.br.state.Load() != breakerHalfOpen {
		t.Fatal("breaker did not half-open past the cooldown")
	}

	// Exactly one probe; the loser fails fast.
	if err := c.shardAllow(0); err != nil {
		t.Fatalf("probe slot refused: %v", err)
	}
	if err := c.shardAllow(0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("second caller during probe = %v, want fast-fail", err)
	}
	// Failed probe: straight back to open, cooldown restarted.
	c.shardReport(0, hodor.ErrRecoveryTimeout)
	if h.br.state.Load() != breakerOpen {
		t.Fatal("failed probe did not reopen the breaker")
	}
	c.SuperviseOnce(t0.Add(100 * time.Millisecond)) // restamp
	c.SuperviseOnce(t0.Add(200 * time.Millisecond))
	if h.br.state.Load() != breakerHalfOpen {
		t.Fatal("breaker did not half-open after the failed probe's cooldown")
	}
	if err := c.shardAllow(0); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	c.shardReport(0, ErrNotFound) // a per-key verdict is a healthy crossing
	if h.br.state.Load() != breakerClosed {
		t.Fatal("clean probe did not close the breaker")
	}

	// Poison trips instantly, threshold notwithstanding.
	c.shardReport(0, hodor.ErrPoisoned)
	if h.br.state.Load() != breakerOpen {
		t.Fatal("poison verdict did not trip the breaker")
	}
	if h.br.trips.Load() < 2 {
		t.Fatalf("trips = %d, want every open transition counted", h.br.trips.Load())
	}
}

// Proxy connections are gated sessions, so their traffic takes the
// half-open probe and reports it like any client's: with no other client
// at all, one clean get over the wire closes a half-open breaker.
func TestProxyTrafficClosesHalfOpenBreaker(t *testing.T) {
	cfg := ClusterConfig{BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond}
	c := newTestCluster(t, 2, cfg)
	h := c.shardHealth(0)
	t0 := time.Now()
	c.SuperviseOnce(t0) // attended: the fallback clock stays out
	srv, err := c.ServeRemote("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	get := func(key []byte) string {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "get %s\r\n", key); err != nil {
			t.Fatal(err)
		}
		l, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(l, "\r\n")
	}
	k0 := keyOwnedBy(t, c, 0, "probe")

	c.shardReport(0, hodor.ErrRecoveryTimeout)
	if got := get(k0); got != "SERVER_ERROR shard 0 recovering" {
		t.Fatalf("get behind the open breaker = %q", got)
	}
	c.SuperviseOnce(t0.Add(10 * time.Millisecond))  // stamp the cooldown
	c.SuperviseOnce(t0.Add(100 * time.Millisecond)) // past it: half-open
	if h.br.state.Load() != breakerHalfOpen {
		t.Fatal("breaker did not half-open")
	}
	if got := get(k0); got != "END" {
		t.Fatalf("probing get = %q, want a clean miss", got)
	}
	if st := h.br.state.Load(); st != breakerClosed || h.br.probes.Load() != 1 {
		t.Fatalf("after the proxy's probe: breaker %s, %d probes; want closed after one",
			breakerStateName(st), h.br.probes.Load())
	}
}

// A probe whose caller never reports (died mid-crossing) cannot wedge
// the breaker: the supervisor times the stale probe back to open and the
// next cooldown hands the slot to a fresh caller.
func TestBreakerStaleProbeTimesOut(t *testing.T) {
	cfg := ClusterConfig{BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond}
	c := newTestCluster(t, 1, cfg)
	h := c.shardHealth(0)
	t0 := time.Now()
	c.SuperviseOnce(t0)

	c.shardReport(0, hodor.ErrRecoveryTimeout)
	c.SuperviseOnce(t0.Add(10 * time.Millisecond))
	c.SuperviseOnce(t0.Add(100 * time.Millisecond))
	if err := c.shardAllow(0); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	if h.br.state.Load() != breakerProbe {
		t.Fatal("probe not taken")
	}

	// The probe never reports. Supervisor passes: stamp, hold inside the
	// window, then time the stale probe back to open.
	c.SuperviseOnce(t0.Add(110 * time.Millisecond))
	if h.br.state.Load() != breakerProbe {
		t.Fatal("stamping pass changed the probe state")
	}
	c.SuperviseOnce(t0.Add(120 * time.Millisecond))
	if h.br.state.Load() != breakerProbe {
		t.Fatal("probe timed out inside the cooldown window")
	}
	c.SuperviseOnce(t0.Add(200 * time.Millisecond))
	if h.br.state.Load() != breakerOpen {
		t.Fatal("stale probe did not revert to open")
	}

	// The next cooldown re-arms a fresh probe, which closes cleanly.
	c.SuperviseOnce(t0.Add(210 * time.Millisecond))
	c.SuperviseOnce(t0.Add(300 * time.Millisecond))
	if err := c.shardAllow(0); err != nil {
		t.Fatalf("fresh probe refused: %v", err)
	}
	c.shardReport(0, nil)
	if h.br.state.Load() != breakerClosed {
		t.Fatal("fresh probe did not close the breaker")
	}
}

// An embedder that never starts the supervisor still recovers: when no
// supervisor has ever attended the cluster, the breaker refusal path
// runs the clock transitions inline, so a tripped breaker half-opens
// after the cooldown instead of fast-failing forever.
func TestUnsupervisedBreakerRecovers(t *testing.T) {
	cfg := ClusterConfig{BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond}
	c := newTestCluster(t, 1, cfg)
	h := c.shardHealth(0)

	c.shardReport(0, hodor.ErrRecoveryTimeout)
	if h.br.state.Load() != breakerOpen {
		t.Fatal("failure did not open the breaker")
	}
	// The first refusal stamps the cooldown on the data path's clock;
	// refusals past the cooldown half-open it and admit a probe.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.shardAllow(0)
		if err == nil {
			break // the fallback half-opened; this caller is the probe
		}
		if !errors.Is(err, ErrShardDown) {
			t.Fatalf("refusal = %v, want ErrShardDown", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never half-opened without a supervisor")
		}
		time.Sleep(time.Millisecond)
	}
	c.shardReport(0, nil)
	if h.br.state.Load() != breakerClosed {
		t.Fatal("clean probe did not close the breaker")
	}
	if err := c.shardAllow(0); err != nil {
		t.Fatalf("allow after unsupervised recovery: %v", err)
	}
	c.shardReport(0, nil)
}

// A rebuild request that queued behind a completed rebuild must not
// re-run the ladder on the healthy replacement — that would detach it
// and silently discard every write accepted since the first rebuild.
// rebuildShard re-verifies poison under resizeMu and returns early.
func TestRebuildShardSkipsHealthyReplacement(t *testing.T) {
	defer faultpoint.DisarmAll()
	c := newTestCluster(t, 2, supervisorTestConfig())
	s := newClusterSession(t, c)

	poisonShard(t, c, 0)
	c.SuperviseOnce(time.Now())
	rebuilt := c.Shard(0)
	key := keyOwnedBy(t, c, 0, "post")
	if err := s.Set(key, []byte("survives"), 0, 0); err != nil {
		t.Fatal(err)
	}

	// A manual RebuildShard whose Poisoned() precheck passed before the
	// supervisor won the race reaches the ladder only now; it must see
	// the healthy replacement and stand down.
	c.shardHealth(0).br.trip(ShardRebuilding)
	if err := c.rebuildShard(0, time.Now()); err != nil {
		t.Fatalf("queued rebuild on healthy shard: %v", err)
	}
	if c.Shard(0) != rebuilt {
		t.Fatal("queued rebuild detached the healthy replacement")
	}
	if m := c.supervisorMetrics(); m.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1 (no second ladder run)", m.Rebuilds)
	}
	if v, _, err := s.Get(key); err != nil || string(v) != "survives" {
		t.Fatalf("write accepted after the first rebuild was lost: %q %v", v, err)
	}
	if st := c.ShardStatuses()[0]; st.Breaker != "closed" {
		t.Fatalf("breaker after the stand-down = %s, want closed", st.Breaker)
	}
}

// While a rebuild is in flight every caller fails fast with the
// "rebuilding" frame — no waiting on the routing barrier.
func TestShardAllowFastFailsWhileRebuilding(t *testing.T) {
	c := newTestCluster(t, 2, ClusterConfig{})
	h := c.shardHealth(1)
	h.rebuilding.Store(true)
	defer h.rebuilding.Store(false)

	if st := c.State(1); st != ShardRebuilding {
		t.Fatalf("state = %d, want rebuilding", st)
	}
	err := c.shardAllow(1)
	if !errors.Is(err, ErrShardDown) || !errors.Is(err, hodor.ErrPoisoned) {
		t.Fatalf("allow during rebuild = %v", err)
	}
	if f, _ := ShardDownFrame(err); f != "shard 1 rebuilding" {
		t.Fatalf("frame = %q", f)
	}
	if h.br.fastFails.Load() == 0 {
		t.Fatal("fast-fail not counted")
	}
	h.rebuilding.Store(false)
	if err := c.shardAllow(1); err != nil {
		t.Fatalf("allow after rebuild flag cleared: %v", err)
	}
}

// OpenCluster degrades per shard: when every image candidate of one
// shard is corrupt, the cluster still opens with that shard rebuilt
// empty and flagged, while the other shards reload intact. Only a
// directory where no shard opens is refused outright.
func TestOpenClusterDegraded(t *testing.T) {
	dir := t.TempDir()
	cfg := ClusterConfig{Shards: 3, Dir: dir,
		Store: Config{HeapBytes: 16 << 20, HashPower: 10, NumItemLocks: 64}}
	c, err := CreateCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := c.NewClientProcess(1000)
	s, _ := cc.NewSession()
	perShard := make([][]string, 3)
	for i := 0; i < 150; i++ {
		key := fmt.Sprintf("deg%03d", i)
		if err := s.Set([]byte(key), []byte("v0"), 0, 0); err != nil {
			t.Fatal(err)
		}
		perShard[c.ShardFor([]byte(key))] = append(perShard[c.ShardFor([]byte(key))], key)
	}
	s.Close()
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	const victim = 1
	corrupt := func(shard int) {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(dir, ShardImageName(shard)) + "*")
		if err != nil || len(matches) == 0 {
			t.Fatalf("no image candidates for shard %d (%v)", shard, err)
		}
		for _, m := range matches {
			if err := os.WriteFile(m, []byte("not a heap image"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	corrupt(victim)

	c2, err := OpenCluster(cfg)
	if err != nil {
		t.Fatalf("degraded open refused: %v", err)
	}
	sts := c2.ShardStatuses()
	for i, st := range sts {
		if want := i == victim; st.RebuiltAtOpen != want {
			t.Fatalf("shard %d rebuiltAtOpen = %v, want %v", i, st.RebuiltAtOpen, want)
		}
		if st.State != ShardHealthy {
			t.Fatalf("shard %d state = %d after degraded open", i, st.State)
		}
	}
	if m := c2.Metrics(); m.Supervisor.RebuiltAtOpen != 1 || m.Supervisor.RebuiltEmpty != 1 {
		t.Fatalf("supervisor metrics after degraded open = %+v", m.Supervisor)
	}
	if items := c2.Shard(victim).Stats().CurrItems; items != 0 {
		t.Fatalf("degraded shard reloaded %d items from corrupt images", items)
	}
	s2 := newClusterSession(t, c2)
	for _, k := range perShard[victim] {
		if _, _, err := s2.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("degraded shard key %s = %v, want lost", k, err)
		}
	}
	for sh, keys := range perShard {
		if sh == victim {
			continue
		}
		for _, k := range keys {
			if v, _, err := s2.Get([]byte(k)); err != nil || string(v) != "v0" {
				t.Fatalf("intact shard %d key %s = %q %v", sh, k, v, err)
			}
		}
	}
	if err := s2.Set([]byte(perShard[victim][0]), []byte("fresh"), 0, 0); err != nil {
		t.Fatalf("write to degraded shard: %v", err)
	}
	// The rebuilt shard checkpoints into the slot scheme as usual.
	if err := c2.Shard(victim).Checkpoint(); err != nil {
		t.Fatalf("checkpoint on degraded shard: %v", err)
	}
	if err := c2.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Every shard corrupt = the wrong directory, not a degraded cluster.
	for i := 0; i < 3; i++ {
		corrupt(i)
	}
	if _, err := OpenCluster(cfg); err == nil {
		t.Fatal("open with every shard corrupt should fail")
	}
}

// The proxy tier never masks a down shard as a miss: ASCII clients see a
// SERVER_ERROR frame naming the shard and its lifecycle state, multigets
// spanning a down shard terminate with the frame instead of END, and
// traffic resumes the instant the shard is back.
func TestProxyReportsShardDownFrames(t *testing.T) {
	c := newTestCluster(t, 2, ClusterConfig{})
	srv, err := c.ServeRemote("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	k0 := keyOwnedBy(t, c, 0, "pxa")
	k1 := keyOwnedBy(t, c, 1, "pxb")

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(format string, args ...any) {
		t.Helper()
		if _, err := fmt.Fprintf(conn, format, args...); err != nil {
			t.Fatal(err)
		}
	}
	line := func() string {
		t.Helper()
		l, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(l, "\r\n")
	}

	for _, k := range [][]byte{k0, k1} {
		send("set %s 0 0 2\r\nok\r\n", k)
		if got := line(); got != "STORED" {
			t.Fatalf("seed set = %q", got)
		}
	}

	c.shardHealth(0).rebuilding.Store(true)

	send("get %s\r\n", k0)
	if got := line(); got != "SERVER_ERROR shard 0 rebuilding" {
		t.Fatalf("get on down shard = %q, want the shard-down frame (never a bare END)", got)
	}
	send("set %s 0 0 2\r\nxx\r\n", k0)
	if got := line(); got != "SERVER_ERROR shard 0 rebuilding" {
		t.Fatalf("set on down shard = %q", got)
	}
	// Multiget spanning a healthy and a down shard: the healthy value is
	// delivered, then the frame terminates the reply instead of END.
	send("get %s %s\r\n", k1, k0)
	var lines []string
	for {
		l := line()
		lines = append(lines, l)
		if l == "END" || strings.HasPrefix(l, "SERVER_ERROR") {
			break
		}
	}
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "VALUE "+string(k1)) ||
		lines[2] != "SERVER_ERROR shard 0 rebuilding" {
		t.Fatalf("multiget over down shard = %q", lines)
	}

	c.shardHealth(0).rebuilding.Store(false)

	// Back up: the fast-fail path never tripped the breaker open, so the
	// first request after the flag clears is served.
	send("get %s\r\n", k0)
	if got := line(); !strings.HasPrefix(got, "VALUE ") {
		t.Fatalf("get after recovery = %q", got)
	}
	line() // data
	line() // END

	// The operator view counted the refusals.
	if st := c.ShardStatuses()[0]; st.FastFails == 0 {
		t.Fatalf("fast-fails not counted: %+v", st)
	}
}

// Checkpointing degrades under disk faults: every injected failure step
// leaves the store healthy on its prior checkpoint generation, counts the
// failure, surfaces the error through the metrics plane, and the next
// clean attempt advances the generation.
func TestDiskFaultCheckpointDegrades(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.img")
	b, err := CreateStore(Config{HeapBytes: 8 << 20, HashPower: 8, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	cp, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	steps := []shm.FaultStep{shm.FaultCreate, shm.FaultWrite, shm.FaultSync, shm.FaultClose, shm.FaultRename}
	for _, step := range steps {
		restore := shm.SetImageFS(&shm.FaultFS{Step: step, Err: fmt.Errorf("injected EIO at %v", step)})
		err := b.Checkpoint()
		restore()
		if err == nil {
			t.Fatalf("checkpoint with %v fault should fail", step)
		}
		if gen := b.CheckpointGeneration(); gen != 1 {
			t.Fatalf("%v fault moved the durable generation to %d", step, gen)
		}
		// The store itself is untouched: the failing disk never poisons a
		// healthy heap.
		if v, _, err := sess.Get([]byte("k")); err != nil || string(v) != "v" {
			t.Fatalf("store unhealthy after %v fault: %q %v", step, v, err)
		}
		cands := shm.ImageCandidates(path)
		if len(cands) == 0 || cands[0].Generation != 1 || cands[0].Err != nil {
			t.Fatalf("best candidate after %v fault = %+v, want intact gen 1", step, cands)
		}
	}

	m := b.Metrics()
	if m.Checkpoint.Failures != len(steps) {
		t.Fatalf("failures = %d, want %d", m.Checkpoint.Failures, len(steps))
	}
	if m.Checkpoint.LastError == "" || !strings.Contains(m.Checkpoint.LastError, "rename") {
		t.Fatalf("last error not surfaced: %q", m.Checkpoint.LastError)
	}
	if m.Checkpoint.LastFailureAt.IsZero() {
		t.Fatal("last failure time not stamped")
	}
	if v := m.Vars()["checkpoint_last_error"]; v == "" {
		t.Fatal("checkpoint_last_error missing from vars")
	}
	found := false
	for _, smp := range m.Samples() {
		if smp.Name == "plibmc_checkpoint_failures_total" && smp.Value == float64(len(steps)) {
			found = true
		}
	}
	if !found {
		t.Fatal("plibmc_checkpoint_failures_total sample missing or wrong")
	}

	// The disk recovers: the next checkpoint advances the generation.
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if gen := b.CheckpointGeneration(); gen != 2 {
		t.Fatalf("generation after recovery = %d, want 2", gen)
	}
}

// RebuildShard is the /admin escape hatch: it refuses a healthy shard and
// runs the ladder on a poisoned one.
func TestRebuildShardAdmin(t *testing.T) {
	defer faultpoint.DisarmAll()
	c := newTestCluster(t, 2, supervisorTestConfig())
	if err := c.RebuildShard(0); err == nil {
		t.Fatal("rebuild of a healthy shard should be refused")
	}
	if err := c.RebuildShard(9); err == nil {
		t.Fatal("rebuild of a nonexistent shard should be refused")
	}
	s := newClusterSession(t, c)
	if err := s.Set(keyOwnedBy(t, c, 0, "adm"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	poisonShard(t, c, 0)
	if err := c.RebuildShard(0); err != nil {
		t.Fatalf("manual rebuild: %v", err)
	}
	if st := c.State(0); st != ShardHealthy {
		t.Fatalf("state after manual rebuild = %d", st)
	}
}
