package plibmc

// The gate-hardening attack suite (ISSUE 7): Garmr-style adversaries
// mounted against the protected-library gate, each of which must be
// *contained* — the store stays Healthy or repairs online, no cross-tenant
// access succeeds, and no attack leaves the library permanently Poisoned.
//
// The catalog (helpers in internal/gatehard):
//   - TestGateHardStrayWRPKRU: a forged protection register written from
//     application code, defeated by eviction-time fence retagging (lazy
//     re-sync) and by register sanitization at the next gate crossing.
//   - TestGateHardConfusedDeputy: library code, acting for tenant A, is
//     handed tenant B's buffer; the per-tenant protection domain makes the
//     access fault and the store repairs online.
//   - TestGateHardZombieReentry: a watchdog-reaped session re-enters the
//     gate and the core operation layer; both refuse (ErrSessionReaped at
//     the gate, a lock-fence panic in core).
//   - TestGateHardMidBatchAbort: a hostile over-budget batch is asked to
//     abort cooperatively; the dispatcher bails out between ops and the
//     suffix reports ErrCallAborted without any recovery cycle.
//   - TestGateHardPinExhaustion: a tenant pins every hardware protection
//     key; sibling calls see typed retryable backpressure, not faults.
//   - TestGateHardAdmissionControl: gate saturation and per-tenant quotas
//     reject with typed ErrOverloaded/ErrTenantQuota.
//   - TestGateHardLiveReapOnline: a live tenant spinning inside the gate is
//     reaped within its deadline and the store resumes online, with the
//     reap latency and time-to-resume logged (EXPERIMENTS.md).
//   - TestModelCheckNoisyTenant: the fairness scenario through the model
//     checker — survivor histories must linearize exactly across a hostile
//     tenant's reap-and-repair episode.
//   - BenchmarkNoisyTenant: p99 of well-behaved tenants with one noisy
//     tenant must stay within 2x of baseline (make bench-noisy).

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/faultpoint"
	"plibmc/internal/gatehard"
	"plibmc/internal/hodor"
	"plibmc/internal/linearcheck"
	"plibmc/internal/model"
	"plibmc/internal/mono"
	"plibmc/internal/pku"
	"plibmc/internal/proc"
	"plibmc/memcached"
)

// ghStore builds a store for the attack suite.
func ghStore(t testing.TB, cfg memcached.Config) *memcached.Bookkeeper {
	t.Helper()
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 32 << 20
	}
	if cfg.HashPower == 0 {
		cfg.HashPower = 8
	}
	if cfg.NumItemLocks == 0 {
		cfg.NumItemLocks = 16
	}
	book, err := memcached.CreateStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { book.Shutdown() })
	return book
}

// ghSession creates one client process with one trampolined session.
func ghSession(t testing.TB, book *memcached.Bookkeeper, uid int) *memcached.Session {
	t.Helper()
	cp, err := book.NewClientProcess(uid)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ghProbe makes one trivial trampolined call, returning the gate's verdict.
func ghProbe(s *memcached.Session) error {
	_, err := hodor.Call(s.Hodor(), func(*proc.Thread, struct{}) (struct{}, error) {
		return struct{}{}, nil
	}, struct{}{})
	return err
}

// arenaWrite writes data into the session's own arena from inside the gate
// (the legitimate use of a tenant domain: staging security-sensitive bytes
// under the tenant's own key).
func arenaWrite(s *memcached.Session, g *pku.Guard, data []byte) error {
	off, _ := s.TenantArena()
	_, err := hodor.Call(s.Hodor(), func(t *proc.Thread, _ struct{}) (struct{}, error) {
		return struct{}{}, g.WriteBytes(t.PKRU(), off, data)
	}, struct{}{})
	return err
}

// arenaRead reads n bytes back from the session's own arena.
func arenaRead(s *memcached.Session, g *pku.Guard, n uint64) ([]byte, error) {
	off, _ := s.TenantArena()
	return hodor.Call(s.Hodor(), func(t *proc.Thread, _ struct{}) ([]byte, error) {
		buf := make([]byte, n)
		err := g.ReadBytes(t.PKRU(), off, buf)
		return buf, err
	}, struct{}{})
}

// awaitInCall waits for the session's in-flight record to publish.
func awaitInCall(t *testing.T, hs *hodor.Session) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !hs.InCall() {
		if time.Now().After(deadline) {
			t.Fatal("hostile call never admitted")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestGateHardStrayWRPKRU: Garmr's stray-wrpkru class. A register forged
// from application code is (a) scrubbed at the attacker's next gate
// crossing — forged rights never survive a trampoline — and (b) made
// worthless against an evicted tenant domain, whose pages the vtable
// re-tagged with the fence key.
func TestGateHardStrayWRPKRU(t *testing.T) {
	book := ghStore(t, memcached.Config{})
	lib := book.Library()
	vt := book.VTable()
	g := book.Domain().Guard()

	victim := ghSession(t, book, 1001)
	attacker := ghSession(t, book, 1002)
	at := attacker.Thread()

	if err := victim.Set([]byte("vk"), []byte("victim-data"), 0, 0); err != nil {
		t.Fatal(err)
	}
	// Warm the attacker's generation cache so the scrub below is
	// attributable to sanitization, not an ordinary lazy sync.
	if _, _, err := attacker.Get([]byte("vk")); err != nil {
		t.Fatal(err)
	}

	// Attack (a): forge a grant of the library's own key and present it at
	// a crossing. The gate must scrub it and count the containment.
	forged := gatehard.ForgeRegister(at, book.Domain().Key)
	if forged == pku.AllRestricted() {
		t.Fatal("forge had no effect; the attack is vacuous")
	}
	m0 := lib.Metrics()
	if _, _, err := attacker.Get([]byte("vk")); err != nil {
		t.Fatal(err)
	}
	if got := at.PKRU(); got != pku.AllRestricted() {
		t.Fatalf("forged register survived the crossing: %v", got)
	}
	if m := lib.Metrics(); m.AttacksContained <= m0.AttacksContained {
		t.Fatal("forged-register scrub not counted as a contained attack")
	}

	// Attack (b): forge a grant of the hardware key currently backing the
	// victim's domain, then churn the vtable until that mapping is evicted.
	// Lazy re-sync's other half — fence retagging at eviction — must leave
	// the forged grant pointing at pages nobody can read.
	victimOff, _ := victim.TenantArena()
	vhw, ok := vt.Mapped(victim.TenantDomain().VKey)
	if !ok {
		t.Fatal("victim tenant domain not mapped")
	}
	gatehard.ForgeRegister(at, vhw)
	pinned, release := gatehard.PinAll(vt)
	release()
	if pinned == 0 {
		t.Fatal("churn bound no keys; eviction never exercised")
	}
	if _, still := vt.Mapped(victim.TenantDomain().VKey); still {
		t.Fatal("victim mapping survived full-table churn")
	}
	if k := book.Domain().PT.KeyAt(victimOff); k != vt.Fence() {
		t.Fatalf("evicted arena tagged %d, want fence %d", k, vt.Fence())
	}
	var buf [8]byte
	err := g.ReadBytes(at.PKRU(), victimOff, buf[:])
	var pf *pku.ProtFault
	if !errors.As(err, &pf) {
		t.Fatalf("stale forged register read the evicted arena: %v", err)
	}

	// The victim is unharmed: its next crossing remaps the domain and its
	// arena works; the attacker's next crossing leaves a clean register.
	if err := arenaWrite(victim, g, []byte("still-mine")); err != nil {
		t.Fatalf("victim arena unusable after attack: %v", err)
	}
	if _, _, err := attacker.Get([]byte("vk")); err != nil {
		t.Fatal(err)
	}
	if got := at.PKRU(); got != pku.AllRestricted() {
		t.Fatalf("attacker register dirty after crossing: %v", got)
	}
	if lib.Poisoned() {
		t.Fatal("stray-wrpkru attack poisoned the library")
	}
}

// TestGateHardConfusedDeputy: tenant A passes tenant B's buffer (arena
// offset) to code running inside A's amplified context. With per-tenant
// domains the amplified register grants the library's pages plus A's own —
// not B's — so both the read and the write probe fault, the store repairs
// online, and B's data is intact.
func TestGateHardConfusedDeputy(t *testing.T) {
	book := ghStore(t, memcached.Config{})
	lib := book.Library()
	g := book.Domain().Guard()

	tenantA := ghSession(t, book, 1001) // the deputy being confused
	tenantB := ghSession(t, book, 1002) // the victim
	secret := []byte("tenant-B-secret!")
	if err := arenaWrite(tenantB, g, secret); err != nil {
		t.Fatal(err)
	}
	bOff, _ := tenantB.TenantArena()

	assertContainedFault := func(err error, what string) {
		t.Helper()
		var ce *hodor.CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("%s did not unwind the call: %v", what, err)
		}
		if _, ok := ce.Cause.(interface{ ContainedAttack() }); !ok {
			t.Fatalf("%s crash cause %v lacks the containment marker", what, ce.Cause)
		}
	}

	m0 := lib.Metrics()
	_, err := gatehard.CrossTenantRead(tenantA.Hodor(), g, bOff, uint64(len(secret)))
	assertContainedFault(err, "cross-tenant read")
	if _, err := gatehard.WaitHealthy(lib, m0.Recoveries+1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	err = gatehard.CrossTenantWrite(tenantA.Hodor(), g, bOff, []byte("overwritten!!!!!"))
	assertContainedFault(err, "cross-tenant write")
	if _, err := gatehard.WaitHealthy(lib, m0.Recoveries+2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if m := lib.Metrics(); m.AttacksContained < m0.AttacksContained+2 {
		t.Fatalf("attacks_contained rose by %d, want >= 2",
			m.AttacksContained-m0.AttacksContained)
	}

	// B's secret survived both probes; A can still use its *own* arena
	// (the fault was about whose pages, not about arena access per se).
	got, err := arenaRead(tenantB, g, uint64(len(secret)))
	if err != nil {
		t.Fatalf("victim cannot read its own arena after the attack: %v", err)
	}
	if string(got) != string(secret) {
		t.Fatalf("victim arena corrupted: %q, want %q", got, secret)
	}
	if err := arenaWrite(tenantA, g, []byte("a-own-buffer")); err != nil {
		t.Fatalf("deputy's own arena broken: %v", err)
	}
	if lib.Poisoned() {
		t.Fatal("confused-deputy probes poisoned the library")
	}
}

// TestGateHardZombieReentry: after the watchdog reaps a live session's
// call, the session is a zombie. Re-entry at every layer must be refused:
// the gate rejects with ErrSessionReaped, ExecBatch never dispatches, and
// a direct jump into the core operation layer dies on the lock fence. The
// zombie's protection domain and arena page are reclaimed by the recovery
// sweep.
func TestGateHardZombieReentry(t *testing.T) {
	budget := 200 * time.Millisecond
	book := ghStore(t, memcached.Config{LiveCallBudget: budget, CallTimeout: 5 * time.Second})
	lib := book.Library()

	zombie := ghSession(t, book, 666)
	sibling := ghSession(t, book, 1001)
	if err := sibling.Set([]byte("sk"), []byte("sibling"), 0, 0); err != nil {
		t.Fatal(err)
	}
	zOff, _ := zombie.TenantArena()

	spinErr := make(chan error, 1)
	go func() {
		spinErr <- gatehard.HostileSpin(zombie.Hodor(), gatehard.SpinOpts{MaxSpin: 10 * time.Second})
	}()
	awaitInCall(t, zombie.Hodor())
	// One sweep with a clock 2.5 budgets ahead: deterministic reap.
	lib.WatchdogSweep(time.Now().Add(budget * 5 / 2))
	err := <-spinErr
	var ce *hodor.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("reaped spin returned %v, want a crash error", err)
	}
	if _, ok := ce.Cause.(gatehard.ReapTermination); !ok {
		t.Fatalf("spin unwound with %v, want the reap termination", ce.Cause)
	}
	if !zombie.Hodor().Reaped() {
		t.Fatal("session not marked reaped")
	}
	if _, err := gatehard.WaitHealthy(lib, 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Re-entry 1: the gate.
	m0 := lib.Metrics()
	if _, _, err := zombie.Get([]byte("sk")); !errors.Is(err, hodor.ErrSessionReaped) {
		t.Fatalf("zombie gate re-entry: %v, want ErrSessionReaped", err)
	}
	// Re-entry 2: a batch (one admission guards the whole batch).
	if _, err := zombie.ExecBatch([]memcached.BatchOp{
		{Code: memcached.BatchSet, Key: []byte("zz"), Value: []byte("x")},
	}); !errors.Is(err, hodor.ErrSessionReaped) {
		t.Fatalf("zombie batch re-entry: %v, want ErrSessionReaped", err)
	}
	if m := lib.Metrics(); m.AttacksContained < m0.AttacksContained+2 {
		t.Fatal("zombie re-entries not counted as contained attacks")
	}
	// Re-entry 3: jumping past the trampoline into the operation layer.
	// The lock fence fires on contended acquisitions (the dangerous race:
	// a zombie winning a lock the repair coordinator broke or a live
	// thread holds), so stage exactly that — the sibling parks inside a
	// locked store section while the zombie tries to take the same bucket
	// lock. The zombie's owner token is defunct; the spin's abort check
	// must kill it with the fence before any shared state moves.
	defer faultpoint.DisarmAll()
	lockHeld := make(chan struct{})
	releaseLock := make(chan struct{})
	if err := faultpoint.Arm("ops.store.locked", func() {
		close(lockHeld)
		<-releaseLock
	}); err != nil {
		t.Fatal(err)
	}
	sibSet := make(chan error, 1)
	go func() {
		sibSet <- sibling.Set([]byte("zz"), []byte("sib"), 0, 0)
	}()
	<-lockHeld
	pv := gatehard.Recovered(func() {
		zombie.Ctx().Set([]byte("zz"), []byte("x"), 0, 0) //nolint:errcheck
	})
	close(releaseLock)
	if err := <-sibSet; err != nil {
		t.Fatalf("sibling set during zombie probe: %v", err)
	}
	if pv == nil {
		t.Fatal("zombie core re-entry mutated the store without a fence panic")
	}
	if _, ok := pv.(interface{ ContainedAttack() }); !ok {
		t.Fatalf("zombie core re-entry died with %v, want a containment fence", pv)
	}
	if v, _, err := sibling.Get([]byte("zz")); err != nil || string(v) != "sib" {
		t.Fatalf("zombie probe disturbed the contended key: %q, %v", v, err)
	}

	// The recovery sweep reclaimed the zombie's domain: its arena is back
	// under the library's key, not leaked under a tenant key or the fence.
	if k := book.Domain().PT.KeyAt(zOff); k != book.Domain().Key {
		t.Fatalf("zombie arena tagged %d after sweep, want library key %d", k, book.Domain().Key)
	}
	// Siblings are untouched.
	if v, _, err := sibling.Get([]byte("sk")); err != nil || string(v) != "sibling" {
		t.Fatalf("sibling read after zombie episode: %q, %v", v, err)
	}
	if m := lib.Metrics(); m.TenantCallsReaped != 1 {
		t.Fatalf("tenant_calls_reaped = %d, want 1", m.TenantCallsReaped)
	}
	if lib.Poisoned() {
		t.Fatal("zombie episode poisoned the library")
	}
}

// TestGateHardMidBatchAbort: the cooperative rung of the escalation
// ladder. A batch stalls past 1.5x its budget; the watchdog requests an
// abort and the dispatcher honours it between operations — the committed
// prefix stands, the suffix reports ErrCallAborted, and no recovery cycle
// runs (cooperative abort is not a crash).
func TestGateHardMidBatchAbort(t *testing.T) {
	defer faultpoint.DisarmAll()
	budget := time.Second
	book := ghStore(t, memcached.Config{LiveCallBudget: budget, CallTimeout: 10 * time.Second})
	lib := book.Library()
	s := ghSession(t, book, 1001)

	inHandler := make(chan struct{})
	release := make(chan struct{})
	if err := faultpoint.Arm("ops.batch.mid_dispatch", func() {
		close(inHandler)
		<-release
	}); err != nil {
		t.Fatal(err)
	}

	const nOps = 8
	ops := make([]memcached.BatchOp, nOps)
	for i := range ops {
		ops[i] = memcached.BatchOp{
			Code: memcached.BatchSet, Key: []byte(fmt.Sprintf("ab%d", i)), Value: []byte("v"),
		}
	}
	type batchOut struct {
		res []memcached.BatchResult
		err error
	}
	done := make(chan batchOut, 1)
	go func() {
		res, err := s.ExecBatch(ops)
		done <- batchOut{res, err}
	}()
	<-inHandler // the batch is stalled between op 0 and op 1

	// Inject a sweep clock 1.75 budgets past the call start: inside the
	// abort window (1.5x..2x), deterministically — no real-time sleeps.
	lib.WatchdogSweep(time.Now().Add(budget + budget/2 + budget/4))
	if !s.Hodor().AbortRequested() {
		t.Fatal("watchdog did not request the abort")
	}
	close(release)
	out := <-done
	if out.err != nil {
		t.Fatalf("aborted batch failed as a crossing: %v", out.err)
	}
	if out.res[0].Err != nil {
		t.Fatalf("committed prefix poisoned: %v", out.res[0].Err)
	}
	for i := 1; i < nOps; i++ {
		if !errors.Is(out.res[i].Err, core.ErrCallAborted) {
			t.Fatalf("op %d: %v, want ErrCallAborted", i, out.res[i].Err)
		}
	}
	// Prefix committed, suffix never ran.
	if v, _, err := s.Get([]byte("ab0")); err != nil || string(v) != "v" {
		t.Fatalf("committed op lost: %q, %v", v, err)
	}
	if _, _, err := s.Get([]byte("ab5")); !errors.Is(err, memcached.ErrNotFound) {
		t.Fatalf("aborted op reached the store: %v", err)
	}
	m := lib.Metrics()
	if m.TenantAborts < 1 {
		t.Fatalf("tenant_aborts = %d, want >= 1", m.TenantAborts)
	}
	if m.Recoveries != 0 || m.TenantCallsReaped != 0 {
		t.Fatalf("cooperative abort triggered recovery (recoveries=%d reaps=%d)",
			m.Recoveries, m.TenantCallsReaped)
	}
	// The session is not a zombie: the next admission resets escalation.
	if err := s.Set([]byte("after"), []byte("ok"), 0, 0); err != nil {
		t.Fatalf("session unusable after cooperative abort: %v", err)
	}
}

// TestGateHardPinExhaustion: a tenant hoards every hardware protection key
// pin. Sibling calls must see typed, retryable backpressure (ErrOverloaded
// wrapping pku.ErrAllKeysPinned) — never a fault or a poisoned store — and
// must proceed as soon as pins release.
func TestGateHardPinExhaustion(t *testing.T) {
	book := ghStore(t, memcached.Config{})
	lib := book.Library()
	vt := book.VTable()
	s := ghSession(t, book, 1001)
	if err := s.Set([]byte("pk"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}

	pinned, release := gatehard.PinAll(vt)
	// 16 hardware keys minus default, the library's fixed key, and the
	// vtable fence leaves 13 bindable keys.
	if pinned != 13 {
		release()
		t.Fatalf("pinned %d hardware keys, want 13", pinned)
	}

	// Raw gate verdict, bypassing the session layer's retry: typed
	// backpressure carrying both the class and the cause.
	m0 := lib.Metrics()
	err := ghProbe(s)
	if !errors.Is(err, hodor.ErrOverloaded) || !errors.Is(err, pku.ErrAllKeysPinned) {
		release()
		t.Fatalf("pin-exhausted call: %v, want ErrOverloaded wrapping ErrAllKeysPinned", err)
	}
	if m := lib.Metrics(); m.GateRejections <= m0.GateRejections {
		release()
		t.Fatal("pin-exhaustion rejection not counted")
	}

	// The session layer turns the same condition into a bounded wait: a
	// Get issued now parks in backoff and completes once the hoard drops.
	got := make(chan error, 1)
	go func() {
		_, _, gErr := s.Get([]byte("pk"))
		got <- gErr
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case gErr := <-got:
		release()
		t.Fatalf("backpressured Get returned early: %v", gErr)
	default:
	}
	release()
	select {
	case gErr := <-got:
		if gErr != nil {
			t.Fatalf("Get after release: %v", gErr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backpressured Get never completed after pins released")
	}
	if lib.Poisoned() || lib.Recovering() {
		t.Fatal("pin exhaustion disturbed library health")
	}
}

// TestGateHardAdmissionControl: the gate's load-shedding line. With the
// gate saturated, further admissions fail fast with ErrOverloaded; a
// tenant over its own quota gets the per-tenant flavour, and a tenant
// under quota still gets in — one noisy tenant cannot take every slot.
func TestGateHardAdmissionControl(t *testing.T) {
	book := ghStore(t, memcached.Config{MaxInFlight: 2, TenantQuota: 1})
	lib := book.Library()

	cp1, err := book.NewClientProcess(1001)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := cp1.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := cp1.NewSession() // same tenant as sa
	if err != nil {
		t.Fatal(err)
	}
	sc := ghSession(t, book, 1002)
	sd := ghSession(t, book, 1003)

	var stop atomic.Bool
	hold := func(s *memcached.Session) chan error {
		ch := make(chan error, 1)
		go func() {
			ch <- gatehard.HostileSpin(s.Hodor(), gatehard.SpinOpts{Stop: stop.Load})
		}()
		awaitInCall(t, s.Hodor())
		return ch
	}
	aCh := hold(sa) // tenant 1001 at quota, 1/2 gate slots held

	m0 := lib.Metrics()
	if err := ghProbe(sb); !errors.Is(err, hodor.ErrTenantQuota) {
		t.Fatalf("over-quota tenant call: %v, want ErrTenantQuota", err)
	}
	if err := ghProbe(sb); !errors.Is(err, hodor.ErrOverloaded) {
		t.Fatal("ErrTenantQuota must match the ErrOverloaded class")
	}
	// A different tenant still fits (2nd gate slot).
	if err := ghProbe(sc); err != nil {
		t.Fatalf("under-quota tenant rejected: %v", err)
	}

	cCh := hold(sc) // gate now saturated: 2/2 slots
	if err := ghProbe(sd); !errors.Is(err, hodor.ErrOverloaded) || errors.Is(err, hodor.ErrTenantQuota) {
		t.Fatalf("saturated-gate call: %v, want plain ErrOverloaded", err)
	}
	if m := lib.Metrics(); m.GateRejections < m0.GateRejections+3 {
		t.Fatalf("gate_rejections rose by %d, want >= 3", m.GateRejections-m0.GateRejections)
	}

	stop.Store(true)
	if err := <-aCh; err != nil {
		t.Fatalf("held call a: %v", err)
	}
	if err := <-cCh; err != nil {
		t.Fatalf("held call c: %v", err)
	}
	// Slots released: everyone proceeds.
	for i, s := range []*memcached.Session{sa, sb, sc, sd} {
		if err := s.Set([]byte(fmt.Sprintf("q%d", i)), []byte("v"), 0, 0); err != nil {
			t.Fatalf("session %d after release: %v", i, err)
		}
	}
}

// TestGateHardLiveReapOnline: live-deadline enforcement end to end, in
// real time. A hostile tenant ignores the abort request and is reaped by
// the watchdog within its deadline; the store repairs online while a
// survivor keeps serving without a single failed call. The measured reap
// latency and time-to-resume are the numbers EXPERIMENTS.md records.
func TestGateHardLiveReapOnline(t *testing.T) {
	budget := 5 * time.Millisecond
	thaw := mono.Still() // a budget of five ticks: the watchdog steps the clock
	defer thaw()
	book := ghStore(t, memcached.Config{LiveCallBudget: budget, CallTimeout: 5 * time.Second})
	lib := book.Library()

	hostile := ghSession(t, book, 666)
	survivor := ghSession(t, book, 1001)
	if err := survivor.Set([]byte("s0"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}

	// Survivor workload: continuous gets and sets for the whole episode.
	survStop := make(chan struct{})
	var survOps atomic.Int64
	var survErr atomic.Value
	var survWG sync.WaitGroup
	survWG.Add(1)
	go func() {
		defer survWG.Done()
		for i := 0; ; i++ {
			select {
			case <-survStop:
				return
			default:
			}
			var err error
			if i%10 == 0 {
				err = survivor.Set([]byte("s0"), []byte("v"), 0, 0)
			} else {
				_, _, err = survivor.Get([]byte("s0"))
			}
			if err != nil {
				survErr.Store(err)
				return
			}
			survOps.Add(1)
		}
	}()

	// The watchdog publishes the clock before each sweep, so no call's
	// stamp lags it by more than one sweep interval.
	wdStop, wdDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(wdDone)
		for {
			select {
			case <-wdStop:
				return
			case <-time.After(500 * time.Microsecond):
				mono.Publish(mono.Now())
				lib.WatchdogSweep(time.Now())
			}
		}
	}()

	t0 := time.Now()
	spinErr := make(chan error, 1)
	go func() {
		spinErr <- gatehard.HostileSpin(hostile.Hodor(), gatehard.SpinOpts{MaxSpin: 10 * time.Second})
	}()
	err := <-spinErr
	reapAt := time.Since(t0)
	var ce *hodor.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("hostile spin ended with %v, want the reap", err)
	}
	resume, err := gatehard.WaitHealthy(lib, 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	totalOutage := time.Since(t0)
	close(wdStop)
	<-wdDone
	close(survStop)
	survWG.Wait()

	if reapAt > time.Second {
		t.Fatalf("reap took %v with a %v budget", reapAt, budget)
	}
	if e := survErr.Load(); e != nil {
		t.Fatalf("survivor call failed during the episode: %v", e)
	}
	if survOps.Load() == 0 {
		t.Fatal("survivor made no progress")
	}
	m := lib.Metrics()
	if m.TenantCallsReaped < 1 || m.Recoveries < 1 {
		t.Fatalf("reaps=%d recoveries=%d, want >= 1 each", m.TenantCallsReaped, m.Recoveries)
	}
	if lib.Poisoned() {
		t.Fatal("live reap poisoned the library")
	}
	t.Logf("budget %v: reaped after %v (deadline 2x = %v), healthy again %v after the reap; "+
		"store-available-again %v after the spin began; survivor completed %d calls with 0 errors",
		budget, reapAt, 2*budget, resume, totalOutage, survOps.Load())
}

// TestModelCheckNoisyTenant: the fairness scenario through the model
// checker. Six well-behaved workers run the full mixed workload while a
// hostile tenant camps inside the gate until the watchdog reaps it and the
// store repairs online. The survivors' merged history must linearize
// *exactly* (no crash-drop allowance): reaping a spinning tenant may not
// disturb one committed operation.
func TestModelCheckNoisyTenant(t *testing.T) {
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 64 << 20, HashPower: 8, NumItemLocks: 16,
		// The live budget must separate the hostile camper (spins for
		// seconds) from well-behaved single-op calls (microseconds, but
		// with -race scheduler noise in the tens of milliseconds): 250ms
		// reaps the camper at ~500ms while no honest call gets close.
		CallTimeout: 5 * time.Second, LiveCallBudget: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer book.Shutdown()
	book.Store().SetClock(func() int64 { return mcFrozenNow })
	lib := book.Library()

	const nSurv = 6
	rec := linearcheck.NewRecorder(nSurv)
	var survivors []*mcWorker
	for p := 0; p < 2; p++ {
		cp, err := book.NewClientProcess(1000 + p)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < nSurv/2; s++ {
			sess, err := cp.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			survivors = append(survivors, newMCWorker(t, sess, rec, len(survivors), *modelcheckSeed, false))
		}
	}
	keys := mcGeneralKeys()
	mixPhase := func(steps int) {
		var wg sync.WaitGroup
		for _, w := range survivors {
			wg.Add(1)
			go func(w *mcWorker) {
				defer wg.Done()
				for i := 0; i < steps; i++ {
					if !w.step(keys, false) {
						w.t.Errorf("well-behaved worker %d died", w.id)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	mixPhase(150) // populate

	// The noisy episode: survivors keep the mixed workload running while
	// the hostile tenant camps in the gate and is reaped.
	hostile := ghSession(t, book, 666)
	wdStop := make(chan struct{})
	wdDone := gatehard.DriveWatchdog(lib, time.Millisecond, wdStop)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range survivors {
		wg.Add(1)
		go func(w *mcWorker) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !w.step(keys, false) {
					w.t.Errorf("well-behaved worker %d died during the episode", w.id)
					return
				}
			}
		}(w)
	}
	spinErr := make(chan error, 1)
	go func() {
		spinErr <- gatehard.HostileSpin(hostile.Hodor(), gatehard.SpinOpts{MaxSpin: 10 * time.Second})
	}()
	if err := <-spinErr; err == nil || errors.Is(err, gatehard.ErrSpinOutlived) {
		t.Fatalf("hostile tenant not reaped: %v", err)
	}
	if _, err := gatehard.WaitHealthy(lib, 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(wdStop)
	<-wdDone

	mixPhase(150) // full mix against the repaired store

	if !hostile.Hodor().Reaped() {
		t.Fatal("hostile session not fenced")
	}
	if m := lib.Metrics(); m.TenantCallsReaped < 1 {
		t.Fatal("no tenant call reaped")
	}
	if lib.Poisoned() {
		t.Fatal("noisy-tenant episode poisoned the library")
	}
	if _, err := book.Allocator().Check(); err != nil {
		t.Fatalf("heap fsck after the episode: %v", err)
	}
	hist := rec.History()
	for i := range hist {
		if hist[i].Pending {
			t.Fatalf("well-behaved history has a pending op: %+v", hist[i])
		}
	}
	t.Logf("noisy-tenant history: %d ops, all completed", len(hist))
	// Exact linearizability — CrashMayDrop deliberately off.
	mcCheck(t, hist, &model.Model{MaxValueLen: core.MaxValueLen})
}

// BenchmarkNoisyTenant (make bench-noisy): p99 latency of well-behaved
// tenants with one noisy tenant pumping batched writes through its quota,
// gated at 2x the baseline p99 (with a floor for scheduler noise).
func BenchmarkNoisyTenant(b *testing.B) {
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 64 << 20, HashPower: 8, NumItemLocks: 16,
		LiveCallBudget: 20 * time.Millisecond, MaxInFlight: 64, TenantQuota: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer book.Shutdown()

	const nWell = 4
	var well []*memcached.Session
	for p := 0; p < 2; p++ {
		cp, err := book.NewClientProcess(1000 + p)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < nWell/2; s++ {
			sess, err := cp.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			well = append(well, sess)
		}
	}
	val := make([]byte, 128)
	for i := 0; i < 256; i++ {
		if err := well[0].Set([]byte(fmt.Sprintf("wk%03d", i)), val, 0, 0); err != nil {
			b.Fatal(err)
		}
	}

	// measure runs the well-behaved 95/5 mix for d and returns its p99.
	measure := func(d time.Duration) time.Duration {
		var mu sync.Mutex
		var lats []time.Duration
		var wg sync.WaitGroup
		end := time.Now().Add(d)
		for wi, s := range well {
			wg.Add(1)
			go func(wi int, s *memcached.Session) {
				defer wg.Done()
				var local []time.Duration
				for i := 0; time.Now().Before(end); i++ {
					key := []byte(fmt.Sprintf("wk%03d", (wi*67+i)%256))
					t0 := time.Now()
					var err error
					if i%20 == 0 {
						err = s.Set(key, val, 0, 0)
					} else {
						_, _, err = s.Get(key)
					}
					if err != nil {
						b.Errorf("well-behaved call failed: %v", err)
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

	// The noisy tenant: one process, four sessions, each pumping 256-op
	// batched writes as fast as admission control lets it.
	noisyProc, err := book.NewClientProcess(666)
	if err != nil {
		b.Fatal(err)
	}
	noisyStop := make(chan struct{})
	var noisyWG sync.WaitGroup
	noisyVal := make([]byte, 512)
	for n := 0; n < 4; n++ {
		ns, err := noisyProc.NewSession()
		if err != nil {
			b.Fatal(err)
		}
		noisyWG.Add(1)
		go func(n int, ns *memcached.Session) {
			defer noisyWG.Done()
			ops := make([]memcached.BatchOp, 256)
			for i := range ops {
				ops[i] = memcached.BatchOp{
					Code: memcached.BatchSet,
					Key:  []byte(fmt.Sprintf("noise%d-%03d", n, i)),
				}
			}
			for j := 0; ; j++ {
				select {
				case <-noisyStop:
					return
				default:
				}
				for i := range ops {
					ops[i].Value = noisyVal
				}
				ns.ExecBatch(ops) //nolint:errcheck
			}
		}(n, ns)
	}
	noisy := measure(300 * time.Millisecond)
	close(noisyStop)
	noisyWG.Wait()

	b.ReportMetric(float64(base.Nanoseconds())/1e3, "p99-base-us")
	b.ReportMetric(float64(noisy.Nanoseconds())/1e3, "p99-noisy-us")
	limit := 2 * base
	if floor := 100 * time.Microsecond; limit < floor {
		limit = floor
	}
	if noisy > limit {
		b.Fatalf("noisy-tenant p99 %v exceeds 2x baseline %v (limit %v)", noisy, base, limit)
	}
	for i := 0; i < b.N; i++ {
		// The phases above are fixed-duration; nothing scales with b.N.
	}
}
