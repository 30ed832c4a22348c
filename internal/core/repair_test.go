package core

import (
	"fmt"
	"testing"
	"time"

	"plibmc/internal/faultpoint"
	"plibmc/internal/shm"
)

// TestReapExpiresDeadReader is the regression test for the epoch
// reclamation stall: a reader that dies inside an announced section used
// to block every reaper forever. With announcements tied to owner tokens
// and a liveness oracle installed, the reaper expires the dead
// announcement itself.
func TestReapExpiresDeadReader(t *testing.T) {
	s, c1 := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	c2 := s.NewCtx(2)
	if c2.rdSlot == 0 {
		t.Fatal("c2 did not claim a reader slot")
	}

	// c2 announces a read section and "dies" (its thread never runs again).
	c2.beginRead()
	s.SetOwnerLiveness(func(owner uint64) bool { return owner != 2 })

	// Quarantine something, then reap. Without expiry this spins forever
	// on c2's odd epoch.
	if err := c1.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := do(c1, BatchOp{Code: BatchDelete, Key: []byte("k")}).Err; err != nil {
		t.Fatal(err)
	}
	if s.GraveLen() == 0 {
		t.Fatal("delete did not quarantine the item")
	}
	done := make(chan int, 1)
	go func() { done <- c1.reapGrave() }()
	select {
	case freed := <-done:
		if freed == 0 {
			t.Fatal("reap freed nothing")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reaper stalled on a dead reader's announcement")
	}

	// The expired slot is free for reuse; the zombie's late endRead must
	// not disturb the new tenant's announcement.
	if got := s.H.AtomicLoad64(c2.rdSlot + readerSlotOwner); got != 0 {
		t.Fatalf("expired slot still owned by %d", got)
	}
	slot := c2.rdSlot
	c3 := s.NewCtx(3)
	if c3.rdSlot != slot {
		// Slot scan order guarantees the freed slot is reclaimed first.
		t.Fatalf("c3 claimed slot %#x, want the freed %#x", c3.rdSlot, slot)
	}
	c3.beginRead()
	e3 := s.H.AtomicLoad64(slot + readerSlotEpoch)
	c2.endRead() // zombie resumes: CAS against its remembered epoch fails
	if got := s.H.AtomicLoad64(slot + readerSlotEpoch); got != e3 {
		t.Fatalf("zombie endRead moved the reassigned slot's epoch %d -> %d", e3, got)
	}
	c3.endRead()
}

// TestReapWaitsForLiveReader: the oracle reporting everyone alive (or no
// oracle at all) preserves the old behaviour — reapers wait for the
// section to exit.
func TestReapWaitsForLiveReader(t *testing.T) {
	s, c1 := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	c2 := s.NewCtx(2)
	s.SetOwnerLiveness(func(uint64) bool { return true })
	c2.beginRead()
	if err := c1.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := do(c1, BatchOp{Code: BatchDelete, Key: []byte("k")}).Err; err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() { done <- c1.reapGrave() }()
	select {
	case <-done:
		t.Fatal("reaper did not wait for a live reader's section")
	case <-time.After(20 * time.Millisecond):
	}
	c2.endRead()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reaper did not finish after the section closed")
	}
}

func deadOnly(tokens ...uint64) func(uint64) bool {
	set := map[uint64]bool{}
	for _, tok := range tokens {
		set[tok] = true
	}
	return func(owner uint64) bool { return set[owner] }
}

func TestForceReleaseDeadLocks(t *testing.T) {
	s, _ := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	const deadTok, liveTok = 99<<20 | 1, 7<<20 | 1
	s.H.LockAcquire(s.itemLocks+0*shm.LockWordSize, deadTok)
	s.H.LockAcquire(s.itemLocks+3*shm.LockWordSize, deadTok)
	s.H.LockAcquire(s.lruLocks+1*shm.LockWordSize, deadTok)
	s.H.LockAcquire(s.cfg+cfgStatsLock, deadTok)
	s.H.LockAcquire(s.itemLocks+5*shm.LockWordSize, liveTok)

	if held := s.HeldLocks(); len(held) != 5 {
		t.Fatalf("HeldLocks = %d, want 5: %v", len(held), held)
	}
	if n := s.ForceReleaseDeadLocks(deadOnly(deadTok)); n != 4 {
		t.Fatalf("broke %d locks, want 4", n)
	}
	held := s.HeldLocks()
	if len(held) != 1 || held[0].Owner != liveTok || held[0].Kind != "item" || held[0].Index != 5 {
		t.Fatalf("after release: %v, want only the live item lock", held)
	}
	s.H.LockRelease(s.itemLocks + 5*shm.LockWordSize)
}

func TestRetireDeadReaders(t *testing.T) {
	s, _ := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	cDead := s.NewCtx(42)
	cLive := s.NewCtx(43)
	cDead.beginRead() // dies inside the section
	cLive.beginRead()
	if n := s.RetireDeadReaders(deadOnly(42)); n != 1 {
		t.Fatalf("retired %d slots, want 1", n)
	}
	if e := s.H.AtomicLoad64(cDead.rdSlot + readerSlotEpoch); e&1 != 0 {
		t.Fatal("dead reader's epoch still odd")
	}
	if o := s.H.AtomicLoad64(cDead.rdSlot + readerSlotOwner); o != 0 {
		t.Fatalf("dead reader's slot still owned by %d", o)
	}
	if o := s.H.AtomicLoad64(cLive.rdSlot + readerSlotOwner); o != 43 {
		t.Fatal("live reader's slot was disturbed")
	}
	cLive.endRead()
}

// TestExitOpAfterRepairGate: a zombie thread resuming its deferred exitOp
// after the gate was repaired must not underflow the in-flight count.
func TestExitOpAfterRepairGate(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	c.enterOp()
	s.RepairGate()
	c.exitOp() // must be a no-op, not a wrap to 2^63-1
	if n, barrier := s.InFlightOps(); n != 0 || barrier {
		t.Fatalf("gate = (%d, %v) after repaired exitOp, want (0, false)", n, barrier)
	}
	// The gate still works for the next operation.
	c.enterOp()
	if n, _ := s.InFlightOps(); n != 1 {
		t.Fatalf("gate count = %d, want 1", n)
	}
	c.exitOp()
	if n, _ := s.InFlightOps(); n != 0 {
		t.Fatalf("gate count = %d, want 0", n)
	}
}

// crashOp arms the named fault point, runs op (which must hit it), and
// swallows the injected panic — leaving behind exactly the torn state a
// dying thread would.
func crashOp(t *testing.T, point string, op func()) {
	t.Helper()
	if err := faultpoint.Arm(point, func() { panic("injected crash: " + point) }); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Disarm(point)
	defer func() {
		if recover() == nil {
			t.Fatalf("operation did not reach fault point %s", point)
		}
	}()
	op()
}

// TestRepairStructural manufactures the damage a mid-operation crash
// leaves behind — a held item lock, an LRU orphan, a torn chain link, a
// populated quarantine — and verifies one Repair pass restores a
// self-consistent store.
func TestRepairStructural(t *testing.T) {
	s, c1 := newStore(t, 1<<23, Options{HashPower: 8, NumItemLocks: 16})
	const n = 50
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
	for i := 0; i < n; i++ {
		if err := c1.Set(key(i), []byte("payload"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A handful of deletes populate the quarantine list.
	for i := n; i < n+5; i++ {
		if err := c1.Set(key(i), []byte("doomed"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := do(c1, BatchOp{Code: BatchDelete, Key: key(i)}).Err; err != nil {
			t.Fatal(err)
		}
	}
	if s.GraveLen() != 5 {
		t.Fatalf("GraveLen = %d, want 5", s.GraveLen())
	}

	// Damage 1: a client dies between the table unlink and the LRU unlink
	// of key-000 — item lock held, orphan still on its LRU list.
	c2 := s.NewCtx(2)
	crashOp(t, "lru.unlink.before_lru", func() { _ = do(c2, BatchOp{Code: BatchDelete, Key: key(0)}).Err })

	// Damage 2: a torn hNext — the longest chain's head points into
	// garbage, so harvesting must truncate and the tail items become
	// orphans to free.
	newT, newMask, _, _, _, _ := s.tables()
	torn := false
	for b := uint64(0); b <= newMask && !torn; b++ {
		it := loadChainHead(s, newT+b*8)
		if it == 0 {
			continue
		}
		chain := 0
		for x := it; x != 0; x = loadChainNext(s, x) {
			chain++
		}
		if chain >= 2 {
			// Raw odd garbage in the pptr word decodes to a misaligned
			// offset, which validItem rejects.
			s.H.Store64(it+itHNext, 0xDEAD)
			torn = true
		}
	}
	if !torn {
		t.Fatal("no bucket chain of length >= 2; raise n or shrink the table")
	}

	// Damage 3: a writer died inside a seqlock section.
	s.H.SeqWriteBegin(s.seqLocks + 7*8)

	// The coordinator's passes, in order.
	dead := deadOnly(2)
	if broke := s.ForceReleaseDeadLocks(dead); broke < 1 {
		t.Fatalf("ForceReleaseDeadLocks broke %d, want >= 1", broke)
	}
	s.RetireDeadReaders(dead)
	s.RepairGate()
	rep, err := s.Repair(c1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SeqlocksCleared < 1 {
		t.Fatalf("SeqlocksCleared = %d, want >= 1", rep.SeqlocksCleared)
	}
	if rep.GraveFreed != 5 {
		t.Fatalf("GraveFreed = %d, want 5", rep.GraveFreed)
	}
	if rep.ItemsDropped < 1 {
		t.Fatalf("ItemsDropped = %d, want >= 1 (the unlink orphan)", rep.ItemsDropped)
	}
	if s.GraveLen() != 0 {
		t.Fatalf("GraveLen = %d after repair", s.GraveLen())
	}

	// The heap checks out and the survivors serve.
	if _, err := s.A.Check(); err != nil {
		t.Fatalf("heap verification after repair: %v", err)
	}
	served := 0
	for i := 1; i < n; i++ {
		if v, _, _, err := c1.Get(key(i)); err == nil {
			if string(v) != "payload" {
				t.Fatalf("%s = %q after repair", key(i), v)
			}
			served++
		}
	}
	if served != rep.ItemsKept {
		t.Fatalf("Get served %d survivors, report says %d kept", served, rep.ItemsKept)
	}
	if _, _, _, err := c1.Get(key(0)); err == nil {
		t.Fatal("half-deleted key resurrected with a stale value path")
	}

	// Stats are self-consistent with a full iteration.
	st := s.Stats()
	walked := c1.ForEach(func(*Entry) bool { return true })
	if uint64(walked) != st.CurrItems || st.CurrItems != uint64(rep.ItemsKept) {
		t.Fatalf("CurrItems = %d, ForEach = %d, kept = %d", st.CurrItems, walked, rep.ItemsKept)
	}
	if st.ItemsDroppedInRepair == 0 || st.Recoveries != 1 {
		t.Fatalf("stats: dropped=%d recoveries=%d", st.ItemsDroppedInRepair, st.Recoveries)
	}

	// The store keeps working: overwrite, insert, delete.
	if err := c1.Set(key(1), []byte("fresh"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if v, _, _, err := c1.Get(key(1)); err != nil || string(v) != "fresh" {
		t.Fatalf("post-repair overwrite: %q, %v", v, err)
	}
	if err := c1.Set([]byte("brand-new"), []byte("x"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := do(c1, BatchOp{Code: BatchDelete, Key: []byte("brand-new")}).Err; err != nil {
		t.Fatal(err)
	}
}

// TestRepairAbortsExpansion: a maintainer dying mid-migration leaves two
// tables and a cursor; repair must collapse back to one table without
// losing survivors.
func TestRepairAbortsExpansion(t *testing.T) {
	s, c := newStore(t, 1<<23, Options{HashPower: 4, NumItemLocks: 16})
	const n = 40
	key := func(i int) []byte { return []byte(fmt.Sprintf("exp-%03d", i)) }
	for i := 0; i < n; i++ {
		if err := c.Set(key(i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.StartExpand(c, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExpandStep(c, 3); err != nil {
		t.Fatal(err)
	}
	if !s.Expanding() {
		t.Fatal("expansion finished prematurely; test needs a mid-flight state")
	}
	s.RepairGate()
	rep, err := s.Repair(c)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ExpandAborted {
		t.Fatal("ExpandAborted not reported")
	}
	if s.Expanding() {
		t.Fatal("still expanding after repair")
	}
	if rep.ItemsKept != n {
		t.Fatalf("ItemsKept = %d, want %d", rep.ItemsKept, n)
	}
	if _, err := s.A.Check(); err != nil {
		t.Fatalf("heap verification: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, _, _, err := c.Get(key(i)); err != nil {
			t.Fatalf("Get(%s) after aborted expansion: %v", key(i), err)
		}
	}
}

// TestZombieExitOpCannotEatLiveCount: a zombie's stale exitOp after a
// gate repair must not decrement an in-flight count that now belongs to
// post-repair operations. The generation word makes the stale decrement
// a no-op.
func TestZombieExitOpCannotEatLiveCount(t *testing.T) {
	s, zombie := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	zombie.enterOp() // in flight at crash time
	s.RepairGate()   // recovery clears the gate, bumps the generation

	live := s.NewCtx(2)
	live.enterOp()
	zombie.exitOp() // resumes its deferred exit with a stale generation
	if n, _ := s.InFlightOps(); n != 1 {
		t.Fatalf("gate count = %d after stale exitOp, want 1 (live op eaten)", n)
	}
	live.exitOp()
	if n, _ := s.InFlightOps(); n != 0 {
		t.Fatalf("gate count = %d, want 0", n)
	}
}

// TestReapedZombieDeniedLock: a watchdog-reaped thread that resumes
// inside a lock spin must never acquire the lock — recovery is about to
// repair (or has repaired) the state it would mutate. The acquire path
// consults the liveness oracle and unwinds the zombie with a panic, and
// the released word stays released.
func TestReapedZombieDeniedLock(t *testing.T) {
	s, _ := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	const crasherTok = 99<<20 | 1
	zombie := s.NewCtx(5)
	lock := s.itemLocks + 2*shm.LockWordSize
	s.H.LockAcquire(lock, crasherTok) // the crasher died holding this

	unwound := make(chan any, 1)
	spinning := make(chan struct{})
	go func() {
		defer func() { unwound <- recover() }()
		close(spinning)
		zombie.lock(lock) // spins: lock held by the (dead) crasher
	}()
	<-spinning
	time.Sleep(5 * time.Millisecond) // let the spin hit its slow path

	// The watchdog reaps both the crasher and the spinning zombie, then
	// recovery breaks the dead owner's lock.
	s.SetOwnerLiveness(func(owner uint64) bool { return owner != crasherTok && owner != 5 })
	if n := s.ForceReleaseDeadLocks(deadOnly(crasherTok, 5)); n != 1 {
		t.Fatalf("broke %d locks, want 1", n)
	}
	select {
	case r := <-unwound:
		if r == nil {
			t.Fatal("zombie acquired a lock after being reaped")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("zombie neither acquired nor unwound")
	}
	if held := s.HeldLocks(); len(held) != 0 {
		t.Fatalf("locks still held after denial: %v", held)
	}
}

// TestZombieBeginReadCannotClobber: a zombie whose reader slot was
// retired and reclaimed by a new context must not overwrite the new
// owner's announcement when it resumes in beginRead.
func TestZombieBeginReadCannotClobber(t *testing.T) {
	s, _ := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	c2 := s.NewCtx(2)
	slot := c2.rdSlot
	if slot == 0 {
		t.Fatal("c2 did not claim a reader slot")
	}
	// c2 dies idle; recovery retires its slot; c3 reclaims it and enters
	// a section.
	s.SetOwnerLiveness(func(owner uint64) bool { return owner != 2 })
	if n := s.RetireDeadReaders(deadOnly(2)); n != 1 {
		t.Fatalf("retired %d slots, want 1", n)
	}
	c3 := s.NewCtx(3)
	if c3.rdSlot != slot {
		t.Fatalf("c3 claimed slot %#x, want the freed %#x", c3.rdSlot, slot)
	}
	if !c3.beginRead() {
		t.Fatal("c3 could not announce a section in its own slot")
	}
	epoch := s.H.AtomicLoad64(slot + readerSlotEpoch)
	if epoch&1 == 0 {
		t.Fatal("c3's announced epoch is not odd")
	}

	// The zombie resumes and tries to announce through its stale slot
	// pointer. It must fail without touching c3's announcement.
	if c2.beginRead() {
		t.Fatal("zombie announced a section through a reclaimed slot")
	}
	if e := s.H.AtomicLoad64(slot + readerSlotEpoch); e != epoch {
		t.Fatalf("zombie moved the new owner's epoch %d -> %d", epoch, e)
	}
	if o := s.H.AtomicLoad64(slot + readerSlotOwner); o != 3 {
		t.Fatalf("slot owner = %d, want 3", o)
	}
	c3.endRead()
}
