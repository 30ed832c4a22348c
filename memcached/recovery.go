package memcached

import (
	"fmt"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/faultpoint"
	"plibmc/internal/hodor"
)

// Crash recovery.
//
// The paper's failure story stops at detection: a client that dies inside
// the library leaves the store in an unknown state, and the watchdog's
// only remedy is to poison the library so every later call fails. This
// file upgrades poison to quarantine → repair → resume. When hodor
// observes a crash mid-call (a trampolined call panicking, or the
// watchdog reaping an overdue call of a killed process) it parks new
// callers and hands the Bookkeeper a *CrashError; repairStore then
//
//  1. force-releases heap-resident locks whose owners are provably dead
//     and retires their epoch announcements, so surviving in-flight
//     calls stop blocking on a corpse;
//  2. drains the surviving calls through hodor (bounded by the grace
//     period — the same bound callers park under);
//  3. with the store quiescent, clears the operation gate and runs the
//     structural repair pass (core.Store.Repair) followed by the
//     allocator's heap verifier;
//  4. returns, at which point hodor flips the library back to Healthy
//     and the parked callers proceed.
//
// A repair that fails leaves the library poisoned — exactly the old
// behaviour, reached only when the new one cannot help.

// fpRepairFail simulates an unrepairable crash: an armed handler panics
// out of the repair routine before it touches any lock, so hodor's
// runRepair poisons the library — the terminal state the shard
// supervisor's rebuild ladder exists to recover from. It sits above the
// repairMu acquisition so the simulated failure never leaks a mutex.
var fpRepairFail = faultpoint.New("recover.repair_fail")

// repairStore is the repair routine registered with hodor.OnRecover. It
// runs on hodor's recovery goroutine while the library is in the
// Recovering state (new calls parked, crashed call already unwound).
func (b *Bookkeeper) repairStore(cause *hodor.CrashError) error {
	fpRepairFail.Maybe()
	dead := func(token uint64) bool { _, defunct := b.lib.TokenState(token); return defunct }
	grace := b.lib.Grace()
	repairStart := time.Now()
	deadline := repairStart.Add(grace)
	// Every pass below re-breaks locks and announcements; accumulate what
	// they actually released so the repair report reflects the whole cycle
	// (the observability plane exports these as recovery-event counters).
	locksBroken, readersRetired := 0, 0

	// repairMu may be held by a maintenance or checkpoint pass that is
	// itself wedged on state the crash left behind — most directly,
	// RunOnce spinning in a lock acquire on an item or LRU lock whose
	// holder died after that pass cleared its Recovering() check. Waiting
	// blind would deadlock recovery forever: the lock is only ever broken
	// by us. Breaking dead-owner locks is a per-word CAS against the
	// observed owner and safe to run concurrently with anything, so run it
	// while waiting for the mutex — it is exactly what unwedges the pass
	// holding it.
	for !b.repairMu.TryLock() {
		locksBroken += b.store.ForceReleaseDeadLocks(dead)
		readersRetired += b.store.RetireDeadReaders(dead)
		if time.Now().After(deadline) {
			return fmt.Errorf("memcached: maintenance pass did not release the repair lock within %v after %v", grace, cause)
		}
		time.Sleep(50 * time.Microsecond)
	}
	defer b.repairMu.Unlock()

	// Quarantine: break the dead owners' locks and epoch announcements
	// first, so live calls blocked on them can finish, then drain. The
	// loop re-breaks each round because a call reaped *during* the drain
	// may itself have died holding locks.
	for {
		locksBroken += b.store.ForceReleaseDeadLocks(dead)
		readersRetired += b.store.RetireDeadReaders(dead)
		if b.lib.DrainLiveCalls(50 * time.Millisecond) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("memcached: live calls did not drain within %v after %v", grace, cause)
		}
	}
	// Final passes with the store quiescent: whatever the last reaped
	// call held is now safe to break.
	locksBroken += b.store.ForceReleaseDeadLocks(dead)
	readersRetired += b.store.RetireDeadReaders(dead)
	locksBroken += b.alloc.RepairLocks()
	b.store.RepairGate()

	// Structural repair runs on a fresh bookkeeper thread.
	rc := b.ownCtx()
	defer rc.Close()
	rep, err := b.store.Repair(rc)
	if err != nil {
		return fmt.Errorf("memcached: structural repair failed: %w", err)
	}
	if _, err := b.alloc.Check(); err != nil {
		return fmt.Errorf("memcached: heap verification after repair failed: %w", err)
	}
	// Gate hardening: tear down protection domains of tenants that died or
	// were reaped, returning their virtual keys and arena pages. Runs after
	// structural repair so a revoked tenant's in-flight unwind has nothing
	// left to race with.
	b.sweepDeadTenantDomains(rc)

	rep.LocksBroken = locksBroken
	rep.ReadersRetired = readersRetired
	b.repairReportMu.Lock()
	b.lastRepair = rep
	b.repairs++
	b.locksBroken += locksBroken
	b.readersRetired += readersRetired
	b.histsRepaired += rep.HistogramsRepaired
	b.lastRepairTime = time.Since(repairStart)
	b.lastRepairAt = time.Now()
	b.repairReportMu.Unlock()
	return nil
}

// sweepDeadTenantDomains tears down the per-tenant protection domains of
// sessions that can never use them again: watchdog-reaped sessions and
// sessions of killed processes with no call in flight (a run-to-completion
// call still owns its pin; a later repair catches it). Teardown re-tags
// the tenant's arena to the fence, returns its hardware key, and frees the
// arena page back to the heap under the library's key — so a hostile
// tenant cannot leak protection keys or heap pages by getting reaped.
func (b *Bookkeeper) sweepDeadTenantDomains(rc *core.Ctx) {
	b.tenants.Range(func(k, _ any) bool {
		if s := k.(*Session); s.hs.Reaped() || (s.th.Proc.Killed() && !s.hs.InCall()) {
			b.untenant(s, rc)
		}
		return true
	})
}

// LastRepair returns the most recent structural repair report and how
// many repair passes have completed.
func (b *Bookkeeper) LastRepair() (core.RepairReport, int) {
	b.repairReportMu.Lock()
	defer b.repairReportMu.Unlock()
	return b.lastRepair, b.repairs
}
