package pku

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"plibmc/internal/shm"
)

func TestPKRUBits(t *testing.T) {
	var p PKRU
	for k := Key(0); k < NumKeys; k++ {
		if !p.CanRead(k) || !p.CanWrite(k) {
			t.Fatalf("zero PKRU should permit everything (key %d)", k)
		}
	}
	p = p.WithAccessDisabled(3)
	if p.CanRead(3) || p.CanWrite(3) {
		t.Fatal("AD should deny both read and write")
	}
	if !p.CanRead(2) || !p.CanWrite(4) {
		t.Fatal("AD on key 3 should not affect neighbors")
	}
	p = p.WithWriteDisabled(3)
	if !p.CanRead(3) || p.CanWrite(3) {
		t.Fatal("WD should permit read, deny write")
	}
	p = p.WithAccess(3)
	if !p.CanRead(3) || !p.CanWrite(3) {
		t.Fatal("WithAccess should clear both bits")
	}
}

func TestAllRestricted(t *testing.T) {
	p := AllRestricted()
	var built PKRU
	for k := Key(1); k < NumKeys; k++ {
		built = built.WithAccessDisabled(k)
	}
	if p != built {
		t.Fatalf("AllRestricted = %#x, want AD on keys 1-15 and nothing else (%#x)", uint32(p), uint32(built))
	}
	if !p.CanRead(KeyDefault) || !p.CanWrite(KeyDefault) {
		t.Fatal("default key must stay permissive")
	}
	for k := Key(1); k < NumKeys; k++ {
		if p.CanRead(k) || p.CanWrite(k) {
			t.Fatalf("key %d should be fully restricted", k)
		}
	}
}

// Property: for any key and any starting register, the three transitions
// produce exactly the intended access matrix and never perturb other keys.
func TestQuickPKRUTransitions(t *testing.T) {
	f := func(start uint32, kRaw uint8) bool {
		p := PKRU(start)
		k := Key(kRaw % NumKeys)
		for other := Key(0); other < NumKeys; other++ {
			if other == k {
				continue
			}
			before := [2]bool{p.CanRead(other), p.CanWrite(other)}
			for _, q := range []PKRU{p.WithAccess(k), p.WithAccessDisabled(k), p.WithWriteDisabled(k)} {
				if q.CanRead(other) != before[0] || q.CanWrite(other) != before[1] {
					return false
				}
			}
		}
		return p.WithAccess(k).CanWrite(k) &&
			!p.WithAccessDisabled(k).CanRead(k) &&
			p.WithWriteDisabled(k).CanRead(k) &&
			!p.WithWriteDisabled(k).CanWrite(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPKRUString(t *testing.T) {
	p := PKRU(0).WithAccessDisabled(1).WithWriteDisabled(2)
	s := p.String()
	if !strings.Contains(s, "k1:AD") || !strings.Contains(s, "k2:WD") {
		t.Fatalf("String() = %q", s)
	}
}

func TestKeyAllocFree(t *testing.T) {
	h := shm.New(4 * shm.PageSize)
	pt := NewPageTable(h)
	seen := map[Key]bool{}
	for i := 0; i < NumKeys-1; i++ {
		k, err := pt.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if k == KeyDefault || seen[k] {
			t.Fatalf("alloc returned %d (default or duplicate)", k)
		}
		seen[k] = true
	}
	if _, err := pt.Alloc(); err == nil {
		t.Fatal("alloc should fail when keys exhausted")
	}
	if err := pt.Free(5); err != nil {
		t.Fatal(err)
	}
	if err := pt.Free(5); err == nil {
		t.Fatal("double free should fail")
	}
	if err := pt.Free(KeyDefault); err == nil {
		t.Fatal("freeing the default key should fail")
	}
	k, err := pt.Alloc()
	if err != nil || k != 5 {
		t.Fatalf("realloc after free = %d, %v", k, err)
	}
}

func TestAssignAndKeyAt(t *testing.T) {
	h := shm.New(8 * shm.PageSize)
	pt := NewPageTable(h)
	k, _ := pt.Alloc()
	// Unaligned range spanning pages 1..3 tags all three whole pages.
	if err := pt.Assign(shm.PageSize+100, 2*shm.PageSize, k); err != nil {
		t.Fatal(err)
	}
	if pt.KeyAt(0) != KeyDefault {
		t.Fatal("page 0 should be default")
	}
	for _, off := range []uint64{shm.PageSize, 2 * shm.PageSize, 3 * shm.PageSize} {
		if pt.KeyAt(off) != k {
			t.Fatalf("page at %#x should have key %d", off, k)
		}
	}
	if pt.KeyAt(4*shm.PageSize) != KeyDefault {
		t.Fatal("page 4 should be default")
	}
	if err := pt.Assign(7*shm.PageSize, 2*shm.PageSize, k); err == nil {
		t.Fatal("assign beyond heap should fail")
	}
	if err := pt.Assign(0, shm.PageSize, 9); err == nil {
		t.Fatal("assign of unallocated key should fail")
	}
	// Freeing the key reverts its pages to the default key.
	if err := pt.Free(k); err != nil {
		t.Fatal(err)
	}
	if pt.KeyAt(shm.PageSize) != KeyDefault {
		t.Fatal("freed key's pages should revert to default")
	}
}

func TestGuardEnforcement(t *testing.T) {
	h := shm.New(4 * shm.PageSize)
	pt := NewPageTable(h)
	g := NewGuard(h, pt)
	k, _ := pt.Alloc()
	if err := pt.Assign(shm.PageSize, shm.PageSize, k); err != nil {
		t.Fatal(err)
	}

	restricted := PKRU(0).WithAccessDisabled(k)
	readOnly := PKRU(0).WithWriteDisabled(k)
	amplified := PKRU(0)

	// Amplified register: full access.
	if err := g.Store64(amplified, shm.PageSize, 7); err != nil {
		t.Fatalf("amplified store: %v", err)
	}
	if v, err := g.Load64(amplified, shm.PageSize); err != nil || v != 7 {
		t.Fatalf("amplified load = %d, %v", v, err)
	}

	// Restricted register: both directions fault.
	if _, err := g.Load64(restricted, shm.PageSize); err == nil {
		t.Fatal("restricted load should fault")
	}
	err := g.Store64(restricted, shm.PageSize, 1)
	var pf *ProtFault
	if !errors.As(err, &pf) {
		t.Fatalf("restricted store error = %v, want ProtFault", err)
	}
	if !pf.Write || pf.Key != k {
		t.Fatalf("fault fields = %+v", pf)
	}
	if pf.Error() == "" {
		t.Fatal("empty fault message")
	}

	// Write-disabled register: read ok, write faults.
	if _, err := g.Load64(readOnly, shm.PageSize); err != nil {
		t.Fatalf("read-only load: %v", err)
	}
	if err := g.Store64(readOnly, shm.PageSize, 1); err == nil {
		t.Fatal("read-only store should fault")
	}

	// Default-key pages remain accessible to the restricted register.
	if err := g.Store64(restricted, 0, 5); err != nil {
		t.Fatalf("default-page store: %v", err)
	}

	// Byte ranges that straddle into the protected page fault too.
	buf := make([]byte, 64)
	if err := g.ReadBytes(restricted, shm.PageSize-32, buf); err == nil {
		t.Fatal("straddling read should fault")
	}
	if err := g.WriteBytes(restricted, shm.PageSize-32, buf); err == nil {
		t.Fatal("straddling write should fault")
	}
	if err := g.Check(restricted, shm.PageSize, 1, false); err == nil {
		t.Fatal("Check should report the fault")
	}
	if err := g.Check(restricted, 0, shm.PageSize, true); err != nil {
		t.Fatalf("Check on default pages: %v", err)
	}
	if err := g.Check(restricted, 0, 0, true); err != nil {
		t.Fatalf("zero-length Check: %v", err)
	}
}

// Property: an access is permitted by Guard iff every page it touches is
// permitted by the register — the PKU access matrix, page-granular.
func TestQuickGuardMatchesMatrix(t *testing.T) {
	h := shm.New(8 * shm.PageSize)
	pt := NewPageTable(h)
	g := NewGuard(h, pt)
	k1, _ := pt.Alloc()
	k2, _ := pt.Alloc()
	pt.Assign(2*shm.PageSize, shm.PageSize, k1)
	pt.Assign(5*shm.PageSize, 2*shm.PageSize, k2)

	f := func(offRaw uint16, nRaw uint8, reg uint32, write bool) bool {
		off := uint64(offRaw) % h.Size()
		n := uint64(nRaw)%256 + 1
		if off+n > h.Size() {
			n = h.Size() - off
		}
		p := PKRU(reg)
		want := true
		for pg := off / shm.PageSize; pg <= (off+n-1)/shm.PageSize; pg++ {
			key := pt.KeyAt(pg * shm.PageSize)
			if write && !p.CanWrite(key) || !write && !p.CanRead(key) {
				want = false
			}
		}
		got := g.Check(p, off, n, write) == nil
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
