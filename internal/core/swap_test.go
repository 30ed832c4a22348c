package core

// Regression tests for the replace-swap miss window found by the
// linearizability checker (modelcheck_test.go): unlinkLocked+linkLocked
// each bracketed their own seqlock write section, so every replacement
// of a live item — Set/Replace/CAS over an existing key, append/prepend,
// width-changing incr/decr — had an instant between the sections where
// the stripe was quiescent and the key was in neither, and a lock-free
// reader scanning that gap validated cleanly and returned a miss for a
// key that was never deleted. swapLocked closes the gap by doing the
// whole replacement in one write section.

import (
	"testing"

	"plibmc/internal/faultpoint"
	"plibmc/internal/ring"
)

// chainHas walks key's bucket chain directly (no locks, no seqlock
// validation — the callers below run on the mutating thread, which holds
// the item lock).
func chainHas(s *Store, key []byte) bool {
	hash := ring.Hash(key)
	it := loadChainHead(s, s.bucketFor(hash))
	for steps := 0; it != 0 && steps < 64; steps++ {
		if s.keyEqual(it, key) {
			return true
		}
		it = loadChainNext(s, it)
	}
	return false
}

// TestSwapKeepsKeyReachable observes the chain from INSIDE the swap's
// write section (fault point ops.store.mid_swap, used here as a probe
// rather than a crash) and requires the key to be reachable at that
// instant on every replacement path. Pre-fix, the comparable site sat
// between the unlink and link sections and the key was in neither.
func TestSwapKeepsKeyReachable(t *testing.T) {
	defer faultpoint.DisarmAll()
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	s := c.s
	key := []byte("swapped")

	paths := []struct {
		name  string
		setup func() error
		op    func() error
	}{
		{"set over live key",
			func() error { return c.Set(key, []byte("123"), 0, 0) },
			func() error { return c.Set(key, []byte("abcdef"), 0, 0) }},
		{"replace",
			func() error { return c.Set(key, []byte("123"), 0, 0) },
			func() error { return do(c, BatchOp{Code: BatchReplace, Key: key, Value: []byte("wxyz")}).Err }},
		{"incr width change",
			func() error { return c.Set(key, []byte("99"), 0, 0) },
			func() error { return do(c, BatchOp{Code: BatchIncr, Key: key, Delta: 1}).Err }},
		{"decr width change",
			func() error { return c.Set(key, []byte("100"), 0, 0) },
			func() error { return do(c, BatchOp{Code: BatchDecr, Key: key, Delta: 1}).Err }},
		{"append",
			func() error { return c.Set(key, []byte("ab"), 0, 0) },
			func() error { return do(c, BatchOp{Code: BatchAppend, Key: key, Value: []byte("cd")}).Err }},
		{"prepend",
			func() error { return c.Set(key, []byte("ab"), 0, 0) },
			func() error { return do(c, BatchOp{Code: BatchPrepend, Key: key, Value: []byte("cd")}).Err }},
	}
	for _, p := range paths {
		if err := p.setup(); err != nil {
			t.Fatalf("%s: setup: %v", p.name, err)
		}
		fired, present := false, false
		if err := faultpoint.Arm("ops.store.mid_swap", func() {
			fired = true
			present = chainHas(s, key)
		}); err != nil {
			t.Fatal(err)
		}
		if err := p.op(); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !fired {
			t.Fatalf("%s: did not go through swapLocked", p.name)
		}
		if !present {
			t.Errorf("%s: key unreachable from its bucket chain mid-swap", p.name)
		}
	}

	// Paths where absence IS the correct observable state must not go
	// through the swap section.
	fired := false
	if err := faultpoint.Arm("ops.store.mid_swap", func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	if err := do(c, BatchOp{Code: BatchDelete, Key: key}).Err; err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("fresh"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("delete or fresh insert went through swapLocked")
	}
	faultpoint.Disarm("ops.store.mid_swap")
}

// TestRepairDropsShadowedDuplicate: a crash inside the swap section
// leaves both the new and the old item chained (new at the head). Repair
// must keep only the newest copy of the key and free the shadowed one —
// resurrecting it would bring back a stale value under its old CAS
// generation.
func TestRepairDropsShadowedDuplicate(t *testing.T) {
	defer faultpoint.DisarmAll()
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	key := []byte("dup")
	if err := c.Set(key, []byte("old"), 0, 0); err != nil {
		t.Fatal(err)
	}

	// A second client dies (for real this time) mid-swap, leaving both
	// items chained, the item lock held, and the stripe seqlock odd.
	c2 := s.NewCtx(2)
	crashOp(t, "ops.store.mid_swap", func() { _ = c2.Set(key, []byte("new"), 0, 0) })

	dead := deadOnly(2)
	if broke := s.ForceReleaseDeadLocks(dead); broke < 1 {
		t.Fatalf("ForceReleaseDeadLocks broke %d, want >= 1", broke)
	}
	s.RetireDeadReaders(dead)
	s.RepairGate()
	rep, err := s.Repair(c)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep.SeqlocksCleared == 0 {
		t.Error("crash left no odd seqlock? the fault point moved out of the write section")
	}
	v, _, _, err := c.Get(key)
	if err != nil || string(v) != "new" {
		t.Fatalf("after repair: Get = %q, %v; want the head-most (new) copy", v, err)
	}
	// The shadowed copy must be gone from the chain, not merely behind
	// the new one.
	hash := ring.Hash(key)
	n := 0
	for it := loadChainHead(s, s.bucketFor(hash)); it != 0; it = loadChainNext(s, it) {
		if s.keyEqual(it, key) {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d copies of the key chained after repair, want 1", n)
	}
	if st := s.Stats(); st.CurrItems != 1 {
		t.Fatalf("CurrItems = %d after repair, want 1", st.CurrItems)
	}
}
