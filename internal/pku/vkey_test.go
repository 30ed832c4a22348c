package pku

import (
	"errors"
	"testing"

	"plibmc/internal/shm"
)

func vtFixture(t *testing.T, pages uint64) (*shm.Heap, *PageTable, *VTable) {
	t.Helper()
	h := shm.New(pages * shm.PageSize)
	pt := NewPageTable(h)
	vt, err := NewVTable(pt)
	if err != nil {
		t.Fatal(err)
	}
	return h, pt, vt
}

// Twenty-four virtual keys on a 16-key page table: every domain must remain
// reachable through Bind, evictions must occur, and an evicted domain's
// pages must be fence-tagged (denied to everyone).
func TestVTableOvercommit(t *testing.T) {
	const domains = 24
	_, pt, vt := vtFixture(t, domains)
	vkeys := make([]VKey, domains)
	for i := range vkeys {
		vkeys[i] = vt.AllocVirtual()
		if err := vt.AssignVirtual(vkeys[i], uint64(i)*shm.PageSize, shm.PageSize); err != nil {
			t.Fatal(err)
		}
		// Unmapped: the page must start on the fence key.
		if k := pt.KeyAt(uint64(i) * shm.PageSize); k != vt.Fence() {
			t.Fatalf("domain %d unmapped page tagged %d, want fence %d", i, k, vt.Fence())
		}
	}
	// Touch every domain once; with only 14 bindable hardware keys
	// (16 - default - fence) this must evict.
	for i, v := range vkeys {
		hw, err := vt.Bind(v)
		if err != nil {
			t.Fatalf("bind domain %d: %v", i, err)
		}
		if hw == KeyDefault || hw == vt.Fence() {
			t.Fatalf("domain %d bound to reserved key %d", i, hw)
		}
		if k := pt.KeyAt(uint64(i) * shm.PageSize); k != hw {
			t.Fatalf("domain %d page tagged %d after bind, want %d", i, k, hw)
		}
		vt.Unbind(v)
	}
	if vt.Evictions() == 0 {
		t.Fatal("24 domains over 14 hardware keys bound without a single eviction")
	}
	// The LRU victim of the sweep above is an early domain: its page must
	// be back on the fence key, not readable through a recycled mapping.
	evicted := -1
	for i, v := range vkeys {
		if _, ok := vt.Mapped(v); !ok {
			evicted = i
			break
		}
	}
	if evicted < 0 {
		t.Fatal("no domain is unmapped after overcommit")
	}
	if k := pt.KeyAt(uint64(evicted) * shm.PageSize); k != vt.Fence() {
		t.Fatalf("evicted domain %d page tagged %d, want fence %d", evicted, k, vt.Fence())
	}
	// A fence-tagged page is denied even to a register with every real key:
	// the fence key is granted to no one.
	p := AllRestricted()
	for k := Key(1); k < NumKeys; k++ {
		if k != vt.Fence() {
			p = p.WithAccess(k)
		}
	}
	if err := pt.check(p, uint64(evicted)*shm.PageSize, 8, false); err == nil {
		t.Fatal("read of evicted domain's page did not fault")
	} else {
		var pf *ProtFault
		if !errors.As(err, &pf) {
			t.Fatalf("want ProtFault, got %v", err)
		}
	}
}

// A pinned mapping must never be recycled, even under key pressure.
func TestVTablePinBlocksEviction(t *testing.T) {
	const domains = 20
	_, _, vt := vtFixture(t, domains)
	vkeys := make([]VKey, domains)
	for i := range vkeys {
		vkeys[i] = vt.AllocVirtual()
		if err := vt.AssignVirtual(vkeys[i], uint64(i)*shm.PageSize, shm.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	// Pin the first 14 (all bindable hardware keys).
	for _, v := range vkeys[:14] {
		if _, err := vt.Bind(v); err != nil {
			t.Fatal(err)
		}
	}
	// Every hardware key is pinned: binding a 15th must fail, not evict.
	if _, err := vt.Bind(vkeys[14]); err == nil {
		t.Fatal("bind succeeded with every hardware key pinned")
	}
	// Unpin one; now the bind must succeed by evicting it.
	vt.Unbind(vkeys[0])
	if _, err := vt.Bind(vkeys[14]); err != nil {
		t.Fatalf("bind after unpin: %v", err)
	}
	if _, ok := vt.Mapped(vkeys[0]); ok {
		t.Fatal("unpinned LRU mapping survived eviction pressure")
	}
	if vt.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", vt.Evictions())
	}
}

// The generation counter moves only on remaps, so warm rebinds cost no
// lazy PKRU syncs.
func TestVTableGenerationStableWhenWarm(t *testing.T) {
	_, _, vt := vtFixture(t, 4)
	v := vt.AllocVirtual()
	if err := vt.AssignVirtual(v, 0, shm.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := vt.Bind(v); err != nil {
		t.Fatal(err)
	}
	vt.Unbind(v)
	g := vt.Gen()
	for i := 0; i < 100; i++ {
		if _, err := vt.Bind(v); err != nil {
			t.Fatal(err)
		}
		vt.Unbind(v)
	}
	if vt.Gen() != g {
		t.Fatalf("generation moved %d -> %d across warm rebinds", g, vt.Gen())
	}
}

// Virtual keys are never reissued while their owner lives (ISSUE 21): the
// key space used to be 16 bits, so one long-lived session plus 65 536
// session open/close cycles on the same store wrapped the counter, handed
// out the invalid key 0, and then reissued key 1 over its live owner —
// resetting its pins mid-call and putting two tenants in one domain.
func TestVKeyNeverReissuedWhileLive(t *testing.T) {
	_, _, vt := vtFixture(t, 2)
	long := vt.AllocVirtual()
	if err := vt.AssignVirtual(long, 0, shm.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := vt.Bind(long); err != nil { // a call in flight for the whole churn
		t.Fatal(err)
	}
	for i := 0; i < 1<<16+2; i++ {
		v := vt.AllocVirtual()
		if v == 0 {
			t.Errorf("cycle %d: AllocVirtual returned the invalid key 0", i)
		}
		if v == long {
			t.Fatalf("cycle %d: reissued live key %d", i, v)
		}
		if err := vt.FreeVirtual(v); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if n := vt.Pins(long); n != 1 {
		t.Fatalf("long-lived key holds %d pins after the churn, want 1", n)
	}
	vt.Unbind(long)
}
