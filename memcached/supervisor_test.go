package memcached

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/client"
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
		ctx := c.Shard(i).ownCtx()
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

	c.SuperviseOnce()

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
	c.SuperviseOnce()

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

// stepClock hands c's breakers a clock that moves only when the test
// moves it.
func stepClock(c *Cluster) *atomic.Int64 {
	clk := new(atomic.Int64)
	c.now = clk.Load
	return clk
}

// breakerOf is shard i's breaker as /admin/shards names it.
func breakerOf(c *Cluster, i int) string { return c.ShardStatuses()[i].Breaker }

// The breaker's full state machine on a stepped clock: consecutive
// crossing failures open it, the cooldown — counted from the trip — makes
// it half-open, exactly one probe is admitted, a failed probe re-opens and
// restarts the cooldown, a clean probe closes, and a poison verdict trips
// instantly.
func TestBreakerStateMachine(t *testing.T) {
	cfg := ClusterConfig{BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond}
	c := newTestCluster(t, 1, cfg)
	h := c.shardHealth(0)
	clk := stepClock(c)
	step := func(d time.Duration) { clk.Add(int64(d)) }

	if err := c.shardAllow(c.top(), 0); err != nil {
		t.Fatalf("closed breaker refused: %v", err)
	}
	c.shardReport(c.top(), 0, nil)
	c.shardReport(c.top(), 0, hodor.ErrRecoveryTimeout)
	if breakerOf(c, 0) != "closed" {
		t.Fatal("one failure below threshold opened the breaker")
	}
	c.shardReport(c.top(), 0, hodor.ErrRecoveryTimeout)
	if breakerOf(c, 0) != "open" {
		t.Fatal("threshold run of failures did not open the breaker")
	}
	err := c.shardAllow(c.top(), 0)
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

	// The cooldown runs from the trip: a refusal inside it holds the
	// breaker open, and past it the breaker is half-open.
	step(49 * time.Millisecond)
	if err := c.shardAllow(c.top(), 0); !errors.Is(err, ErrShardDown) || breakerOf(c, 0) != "open" {
		t.Fatalf("inside the cooldown: allow = %v, breaker %s", err, breakerOf(c, 0))
	}
	step(2 * time.Millisecond)
	if breakerOf(c, 0) != "half-open" {
		t.Fatal("breaker did not half-open past the cooldown")
	}

	// Exactly one probe; the loser fails fast.
	if err := c.shardAllow(c.top(), 0); err != nil {
		t.Fatalf("probe slot refused: %v", err)
	}
	if err := c.shardAllow(c.top(), 0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("second caller during probe = %v, want fast-fail", err)
	}
	// Failed probe: straight back to open, cooldown restarted.
	c.shardReport(c.top(), 0, hodor.ErrRecoveryTimeout)
	if breakerOf(c, 0) != "open" {
		t.Fatal("failed probe did not reopen the breaker")
	}
	step(49 * time.Millisecond)
	if breakerOf(c, 0) != "open" {
		t.Fatal("failed probe did not restart the cooldown")
	}
	step(time.Millisecond)
	if breakerOf(c, 0) != "half-open" {
		t.Fatal("breaker did not half-open after the failed probe's cooldown")
	}
	if err := c.shardAllow(c.top(), 0); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	c.shardReport(c.top(), 0, ErrNotFound) // a per-key verdict is a healthy crossing
	if breakerOf(c, 0) != "closed" {
		t.Fatal("clean probe did not close the breaker")
	}

	// Poison trips instantly, threshold notwithstanding.
	c.shardReport(c.top(), 0, hodor.ErrPoisoned)
	if breakerOf(c, 0) != "open" {
		t.Fatal("poison verdict did not trip the breaker")
	}
	if h.br.trips.Load() < 2 {
		t.Fatalf("trips = %d, want every open transition counted", h.br.trips.Load())
	}
	if h.br.probes.Load() != 2 {
		t.Fatalf("probes = %d, want 2", h.br.probes.Load())
	}
}

// The probe is one CAS on the word: however many callers are refused at
// once past the cooldown, exactly one of them is admitted.
func TestBreakerOneProbeUnderContention(t *testing.T) {
	c := newTestCluster(t, 1, ClusterConfig{BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond})
	clk := stepClock(c)
	c.shardReport(c.top(), 0, hodor.ErrRecoveryTimeout)
	clk.Add(int64(time.Second))
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if c.shardAllow(c.top(), 0) == nil {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := admitted.Load(); n != 1 {
		t.Fatalf("%d callers admitted past the cooldown, want exactly one probe", n)
	}
}

// The healthy path reads no clock: a closed breaker admits calls and takes
// their reports, per-key verdicts included, without calling Cluster.now.
func TestBreakerHealthyPathReadsNoClock(t *testing.T) {
	c := newTestCluster(t, 1, ClusterConfig{})
	var reads atomic.Int64
	c.now = func() int64 { return reads.Add(1) }
	for i := 0; i < 100; i++ {
		if err := c.shardAllow(c.top(), 0); err != nil {
			t.Fatalf("closed breaker refused: %v", err)
		}
		c.shardReport(c.top(), 0, nil)
		c.shardReport(c.top(), 0, ErrNotFound)
	}
	if n := reads.Load(); n != 0 {
		t.Fatalf("healthy path read the clock %d times", n)
	}
}

// Proxy connections are gated sessions, so their traffic takes the
// half-open probe and reports it like any client's: with no other client
// at all, one clean get over the wire closes a half-open breaker.
func TestProxyTrafficClosesHalfOpenBreaker(t *testing.T) {
	cfg := ClusterConfig{BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond}
	c := newTestCluster(t, 2, cfg)
	h := c.shardHealth(0)
	clk := stepClock(c)
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

	c.shardReport(c.top(), 0, hodor.ErrRecoveryTimeout)
	if got := get(k0); got != "SERVER_ERROR shard 0 recovering" {
		t.Fatalf("get behind the open breaker = %q", got)
	}
	clk.Add(int64(100 * time.Millisecond)) // past the cooldown: half-open
	if breakerOf(c, 0) != "half-open" {
		t.Fatal("breaker did not half-open")
	}
	if got := get(k0); got != "END" {
		t.Fatalf("probing get = %q, want a clean miss", got)
	}
	if st := breakerOf(c, 0); st != "closed" || h.br.probes.Load() != 1 {
		t.Fatalf("after the proxy's probe: breaker %s, %d probes; want closed after one",
			st, h.br.probes.Load())
	}
}

// A probe whose caller never reports (died mid-crossing) cannot wedge
// the breaker: one cooldown after its admission the next refused caller
// takes the probe over, and its clean report closes the breaker.
func TestBreakerStaleProbeTimesOut(t *testing.T) {
	cfg := ClusterConfig{BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond}
	c := newTestCluster(t, 1, cfg)
	h := c.shardHealth(0)
	clk := stepClock(c)
	step := func(d time.Duration) { clk.Add(int64(d)) }

	c.shardReport(c.top(), 0, hodor.ErrRecoveryTimeout)
	step(100 * time.Millisecond)
	if err := c.shardAllow(c.top(), 0); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	if breakerOf(c, 0) != "probe" {
		t.Fatal("probe not taken")
	}

	// The probe never reports. Inside one cooldown of its admission every
	// other caller is refused and the probe stands.
	step(10 * time.Millisecond)
	if err := c.shardAllow(c.top(), 0); !errors.Is(err, ErrShardDown) || breakerOf(c, 0) != "probe" {
		t.Fatalf("refusal beside a live probe = %v, breaker %s", err, breakerOf(c, 0))
	}
	step(39 * time.Millisecond)
	if err := c.shardAllow(c.top(), 0); !errors.Is(err, ErrShardDown) || breakerOf(c, 0) != "probe" {
		t.Fatalf("probe timed out inside the cooldown window: %v, breaker %s", err, breakerOf(c, 0))
	}

	// A cooldown after its admission the stale probe goes to a fresh
	// caller, which closes the breaker cleanly.
	step(time.Millisecond)
	if err := c.shardAllow(c.top(), 0); err != nil {
		t.Fatalf("fresh probe refused: %v", err)
	}
	if n := h.br.probes.Load(); n != 2 {
		t.Fatalf("probes = %d, want the stale one and its successor", n)
	}
	c.shardReport(c.top(), 0, nil)
	if breakerOf(c, 0) != "closed" {
		t.Fatal("fresh probe did not close the breaker")
	}
}

// The breaker keeps its own time, so a cluster whose embedder never starts
// the supervisor still recovers: a tripped breaker hands the probe to the
// first caller refused past the cooldown instead of fast-failing forever.
func TestUnsupervisedBreakerRecovers(t *testing.T) {
	cfg := ClusterConfig{BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond}
	c := newTestCluster(t, 1, cfg)
	clk := stepClock(c)

	c.shardReport(c.top(), 0, hodor.ErrRecoveryTimeout)
	if breakerOf(c, 0) != "open" {
		t.Fatal("failure did not open the breaker")
	}
	clk.Add(int64(19 * time.Millisecond))
	if err := c.shardAllow(c.top(), 0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("refusal = %v, want ErrShardDown", err)
	}
	clk.Add(int64(time.Millisecond))
	if err := c.shardAllow(c.top(), 0); err != nil {
		t.Fatalf("breaker never half-opened without a supervisor: %v", err)
	}
	c.shardReport(c.top(), 0, nil)
	if breakerOf(c, 0) != "closed" {
		t.Fatal("clean probe did not close the breaker")
	}
	if err := c.shardAllow(c.top(), 0); err != nil {
		t.Fatalf("allow after unsupervised recovery: %v", err)
	}
	c.shardReport(c.top(), 0, nil)
}

// An open breaker on a poisoned store is refused past any number of
// cooldowns — a probe could only cross into a gate that refuses every
// call — and only a rebuild closes it.
func TestBreakerPoisonedStoreStaysOpenUntilRebuild(t *testing.T) {
	defer faultpoint.DisarmAll()
	cfg := supervisorTestConfig()
	cfg.BreakerCooldown = 50 * time.Millisecond
	c := newTestCluster(t, 2, cfg)
	clk := stepClock(c)
	s := newClusterSession(t, c)
	key := keyOwnedBy(t, c, 0, "dead")

	poisonShard(t, c, 0)
	if _, _, err := s.Get(key); !errors.Is(err, hodor.ErrPoisoned) {
		t.Fatalf("get on the poisoned shard = %v, want its gate's poison verdict", err)
	}
	for n := 0; n < 10; n++ {
		clk.Add(int64(time.Second)) // twenty cooldowns
		_, _, err := s.Get(key)
		if f, _ := ShardDownFrame(err); f != "shard 0 rebuilding" || !errors.Is(err, hodor.ErrPoisoned) {
			t.Fatalf("get %d behind the poisoned store = %v, want the rebuilding fast-fail", n, err)
		}
		if st := breakerOf(c, 0); st != "open" {
			t.Fatalf("breaker on a poisoned store reads %s, want open", st)
		}
	}
	if n := c.shardHealth(0).br.probes.Load(); n != 0 {
		t.Fatalf("%d probes sent into a poisoned store", n)
	}

	c.SuperviseOnce()
	if st := breakerOf(c, 0); st != "closed" {
		t.Fatalf("breaker after the rebuild = %s, want closed", st)
	}
	if _, _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get on the rebuilt shard = %v, want a clean miss", err)
	}
}

// A straggler — a call still unwinding in a dead store — may report
// ErrPoisoned after the rebuild attached a healthy replacement. Its
// verdict trips the breaker, but the store behind it is healthy, so one
// cooldown later a normal probe closes the breaker.
func TestBreakerStragglerPoisonHeals(t *testing.T) {
	c := newTestCluster(t, 1, ClusterConfig{BreakerCooldown: 50 * time.Millisecond})
	clk := stepClock(c)

	c.shardReport(c.top(), 0, hodor.ErrPoisoned)
	err := c.shardAllow(c.top(), 0)
	if f, _ := ShardDownFrame(err); f != "shard 0 rebuilding" || !errors.Is(err, hodor.ErrPoisoned) {
		t.Fatalf("allow after a poison verdict = %v, want the rebuilding fast-fail", err)
	}
	clk.Add(int64(49 * time.Millisecond))
	if err := c.shardAllow(c.top(), 0); !errors.Is(err, ErrShardDown) {
		t.Fatalf("allow inside the cooldown = %v, want a fast-fail", err)
	}
	clk.Add(int64(time.Millisecond))
	if err := c.shardAllow(c.top(), 0); err != nil {
		t.Fatalf("probe against the healthy store refused: %v", err)
	}
	c.shardReport(c.top(), 0, nil)
	if st := breakerOf(c, 0); st != "closed" {
		t.Fatalf("breaker after the clean probe = %s, want closed", st)
	}
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
	c.SuperviseOnce()
	rebuilt := c.Shard(0)
	key := keyOwnedBy(t, c, 0, "post")
	if err := s.Set(key, []byte("survives"), 0, 0); err != nil {
		t.Fatal(err)
	}

	// A manual RebuildShard whose Poisoned() precheck passed before the
	// supervisor won the race reaches the ladder only now; it must see
	// the healthy replacement and stand down.
	if err := c.rebuildShard(0); err != nil {
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
// "rebuilding" frame — no waiting on the routing barrier — and State()
// and /admin/shards report the same state.
func TestShardAllowFastFailsWhileRebuilding(t *testing.T) {
	c := newTestCluster(t, 2, ClusterConfig{})
	h := c.shardHealth(1)
	h.br.word.Store(brPoisoned | brRebuilding)
	defer h.br.word.Store(brClosed)

	if st := c.State(1); st != ShardRebuilding {
		t.Fatalf("state = %d, want rebuilding", st)
	}
	if st := c.ShardStatuses()[1]; st.State != ShardRebuilding || st.Breaker != "open" {
		t.Fatalf("/admin/shards during the rebuild = %+v, want rebuilding behind an open breaker", st)
	}
	err := c.shardAllow(c.top(), 1)
	if !errors.Is(err, ErrShardDown) || !errors.Is(err, hodor.ErrPoisoned) {
		t.Fatalf("allow during rebuild = %v", err)
	}
	if f, _ := ShardDownFrame(err); f != "shard 1 rebuilding" {
		t.Fatalf("frame = %q", f)
	}
	if h.br.fastFails.Load() == 0 {
		t.Fatal("fast-fail not counted")
	}
	h.br.word.Store(brClosed)
	if err := c.shardAllow(c.top(), 1); err != nil {
		t.Fatalf("allow after the rebuild closed the word: %v", err)
	}
	if st := c.ShardStatuses()[1]; st.State != ShardHealthy || st.Breaker != "closed" || c.State(1) != ShardHealthy {
		t.Fatalf("/admin/shards after the rebuild = %+v, State() = %d", st, c.State(1))
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

	c.shardHealth(0).br.word.Store(brPoisoned | brRebuilding)

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

	c.shardHealth(0).br.word.Store(brClosed)

	// Back up: the first request after the rebuild closes the word is
	// served.
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

// A proxy flush_all that cannot reach a shard fails on the wire, and the
// socket client reports that failure instead of reading it as success.
func TestProxyFlushAllFailsBehindOpenBreaker(t *testing.T) {
	c := newTestCluster(t, 2, ClusterConfig{BreakerThreshold: 1})
	stepClock(c)
	srv, err := c.ServeRemote("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c.shardReport(c.top(), 1, hodor.ErrRecoveryTimeout)
	for _, proto := range []client.Protocol{client.Binary, client.ASCII} {
		cl, err := client.Dial("tcp", srv.Addr().String(), proto)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewSocketSession(cl).FlushAll(); err == nil {
			t.Fatalf("protocol %d: flush_all with shard 1 down reported success", proto)
		}
		cl.Close()
	}
	c.shardHealth(1).br.word.Store(brClosed)
	cl, err := client.Dial("tcp", srv.Addr().String(), client.Binary)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := NewSocketSession(cl).FlushAll(); err != nil {
		t.Fatalf("flush_all with every shard up: %v", err)
	}
}

// The crossing that trips a breaker fails as the fast-fails after it do,
// naming its shard, on the single-op and on the batch path, and
// errors.Is still reaches what the crossing itself returned.
func TestTrippingCrossingNamesShard(t *testing.T) {
	defer faultpoint.DisarmAll()
	c := newTestCluster(t, 2, supervisorTestConfig())
	k := keyOwnedBy(t, c, 1, "down")
	poisonShard(t, c, 1)
	faultpoint.DisarmAll()
	cs := newClusterSession(t, c)
	_, _, err := cs.Get(k)
	if frame, ok := ShardDownFrame(err); !ok || frame != "shard 1 rebuilding" || !errors.Is(err, hodor.ErrPoisoned) {
		t.Fatalf("the tripping Get = %v; want shard 1 named, wrapping ErrPoisoned", err)
	}
	c.shardHealth(1).br.word.Store(brClosed)
	res, err := cs.ExecBatch([]BatchOp{{Code: BatchGet, Key: k}})
	if err != nil {
		t.Fatal(err)
	}
	if frame, ok := ShardDownFrame(res[0].Err); !ok || frame != "shard 1 rebuilding" || !errors.Is(res[0].Err, hodor.ErrPoisoned) {
		t.Fatalf("the tripping batch = %v; want shard 1 named, wrapping ErrPoisoned", res[0].Err)
	}
}

// A SocketSession over the proxy reports a poisoned shard as the failure
// it is, naming the shard, in both protocols: never a miss, a non-numeric
// value or a reply it cannot parse.
func TestSocketSessionNamesPoisonedShard(t *testing.T) {
	defer faultpoint.DisarmAll()
	c := newTestCluster(t, 2, supervisorTestConfig())
	srv, err := c.ServeRemote("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	k, up := keyOwnedBy(t, c, 1, "down"), keyOwnedBy(t, c, 0, "up")
	poisonShard(t, c, 1)
	faultpoint.DisarmAll()
	// The first op is the crossing into the poisoned store that opens the
	// breaker; it names the shard as the fast-fails after it do.
	for _, proto := range []client.Protocol{client.ASCII, client.Binary} {
		cl, err := client.Dial("tcp", srv.Addr().String(), proto)
		if err != nil {
			t.Fatal(err)
		}
		kv := NewSocketSession(cl)
		for name, call := range map[string]func() error{
			"get":    func() error { _, _, err := kv.Get(k); return err },
			"delete": func() error { return kv.Delete(k) },
			"touch":  func() error { return kv.Touch(k, 0) },
			"incr":   func() error { _, err := kv.Increment(k, 1); return err },
		} {
			if err := call(); err == nil || !strings.Contains(err.Error(), "shard 1 rebuilding") ||
				errors.Is(err, ErrNotFound) || errors.Is(err, ErrNotNumeric) {
				t.Errorf("protocol %d: %s on the poisoned shard = %v, want a failure naming shard 1", proto, name, err)
			}
		}
		// Each failure was a reply read whole: the connection still serves.
		if err := kv.Set(up, []byte("v"), 0, 0); err != nil {
			t.Errorf("protocol %d: set on the healthy shard after the failures: %v", proto, err)
		}
		cl.Close()
	}
}

// Checkpointing degrades under disk faults: every injected failure step
// leaves the store healthy on its prior checkpoint generation, counts the
// failure, surfaces the error through the metrics plane, and the next
// clean attempt advances the generation.
func TestDiskFaultCheckpointDegrades(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ShardImageName(0))
	c := newTestCluster(t, 1, ClusterConfig{Dir: dir, Store: Config{HeapBytes: 8 << 20, HashPower: 8}})
	b := c.Shard(0)
	sess := newClusterSession(t, c)
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
	if got := c.ShardStatuses()[0].CheckpointLastError; got != m.Checkpoint.LastError {
		t.Fatalf("shard status checkpoint_last_error = %q, want %q", got, m.Checkpoint.LastError)
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
