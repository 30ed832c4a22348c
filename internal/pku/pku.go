// Package pku simulates Intel's Protection Keys for Userspace (PKU/MPK),
// the hardware mechanism underneath Hodor's preferred protected-library
// implementation.
//
// Real PKU harvests four previously unused bits in each page-table entry to
// tag the page with one of 16 keys, and adds a 32-bit pkru register —
// writable in user space with the unprivileged wrpkru instruction — holding
// two bits per key: AD (access disable) and WD (write disable).
//
// Go's runtime multiplexes goroutines across OS threads, so a real pkru
// register cannot be pinned to a logical thread of our simulated processes
// (this is the scheduler/MPK conflict called out for this reproduction).
// Instead we model the page-key assignment as a software page table over the
// shared heap and the pkru register as a field of each simulated thread, and
// we check the (key, pkru) access matrix on every guarded heap access. The
// policy — who may touch which page when — is exactly PKU's; only the
// enforcement point moves from the MMU into the access path.
package pku

import (
	"fmt"
	"sync"

	"plibmc/internal/shm"
)

// NumKeys is the number of protection keys PKU provides.
const NumKeys = 16

// Key identifies one of the 16 protection keys.
type Key uint8

// KeyDefault is key 0, which tags all pages not explicitly assigned another
// key. Conventionally its PKRU bits are left permissive.
const KeyDefault Key = 0

// PKRU models the 32-bit pkru register: two bits per key,
// bit 2k = AD (access disable), bit 2k+1 = WD (write disable).
type PKRU uint32

// AllRestricted is a PKRU value that denies access to every non-default key
// (AD set for keys 1–15), the state Hodor's init routine installs before
// main runs. Every gate crossing compares against it, so it is a constant.
func AllRestricted() PKRU { return 0x55555554 }

// CanRead reports whether the register permits reads of pages tagged k.
func (p PKRU) CanRead(k Key) bool { return p&(1<<(2*k)) == 0 }

// CanWrite reports whether the register permits writes to pages tagged k.
func (p PKRU) CanWrite(k Key) bool {
	return p&(1<<(2*k)) == 0 && p&(1<<(2*k+1)) == 0
}

// WithAccessDisabled returns p with all access to key k denied: (AD=1).
func (p PKRU) WithAccessDisabled(k Key) PKRU { return p | 1<<(2*k) }

// WithWriteDisabled returns p with writes to key k denied: (AD=0, WD=1).
func (p PKRU) WithWriteDisabled(k Key) PKRU {
	return (p &^ (1 << (2 * k))) | 1<<(2*k+1)
}

// WithAccess returns p with full access to key k granted: (0,0).
func (p PKRU) WithAccess(k Key) PKRU { return p &^ (3 << (2 * k)) }

// String renders the register as one (AD,WD) pair per non-permissive key.
func (p PKRU) String() string {
	s := "pkru{"
	first := true
	for k := Key(0); k < NumKeys; k++ {
		ad, wd := !p.CanRead(k), p.CanRead(k) && !p.CanWrite(k)
		if !ad && !wd {
			continue
		}
		if !first {
			s += " "
		}
		first = false
		switch {
		case ad:
			s += fmt.Sprintf("k%d:AD", k)
		case wd:
			s += fmt.Sprintf("k%d:WD", k)
		}
	}
	return s + "}"
}

// PageTable assigns a protection key to each page of a heap, playing the
// role of the harvested PTE bits. One PageTable exists per heap, shared by
// all processes, because in the paper every process maps the same file with
// the same page-key tags (the kernel sets them up at mmap time).
type PageTable struct {
	mu    sync.RWMutex
	pkeys []Key
	inUse [NumKeys]bool // pkey_alloc bookkeeping
}

// NewPageTable creates a page table covering the given heap, with every page
// tagged KeyDefault and key 0 pre-allocated (as on Linux).
func NewPageTable(h *shm.Heap) *PageTable {
	pt := &PageTable{pkeys: make([]Key, h.Pages())}
	pt.inUse[KeyDefault] = true
	return pt
}

// Alloc allocates an unused protection key, the analog of pkey_alloc(2).
func (pt *PageTable) Alloc() (Key, error) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for k := Key(1); k < NumKeys; k++ {
		if !pt.inUse[k] {
			pt.inUse[k] = true
			return k, nil
		}
	}
	return 0, fmt.Errorf("pku: no free protection keys (all %d in use)", NumKeys)
}

// Free releases a key previously returned by Alloc, the analog of
// pkey_free(2). Pages still tagged with the key revert to KeyDefault.
func (pt *PageTable) Free(k Key) error {
	if k == KeyDefault {
		return fmt.Errorf("pku: cannot free the default key")
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if !pt.inUse[k] {
		return fmt.Errorf("pku: key %d is not allocated", k)
	}
	pt.inUse[k] = false
	for i, pk := range pt.pkeys {
		if pk == k {
			pt.pkeys[i] = KeyDefault
		}
	}
	return nil
}

// Assign tags every page overlapping [off, off+n) with key k, the analog of
// pkey_mprotect(2). off and n need not be page-aligned; protection is
// page-granular, exactly as in hardware.
func (pt *PageTable) Assign(off, n uint64, k Key) error {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if !pt.inUse[k] {
		return fmt.Errorf("pku: assigning unallocated key %d", k)
	}
	if n == 0 {
		return nil
	}
	first := off / shm.PageSize
	last := (off + n - 1) / shm.PageSize
	if last >= uint64(len(pt.pkeys)) {
		return fmt.Errorf("pku: assign range [%#x,+%d) beyond heap", off, n)
	}
	for p := first; p <= last; p++ {
		pt.pkeys[p] = k
	}
	return nil
}

// KeyAt returns the protection key tagging the page containing off.
func (pt *PageTable) KeyAt(off uint64) Key {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	p := off / shm.PageSize
	if p >= uint64(len(pt.pkeys)) {
		return KeyDefault
	}
	return pt.pkeys[p]
}

// check validates an access of n bytes at off under register p. It returns
// nil if permitted and a *ProtFault otherwise. The slow path (consulting the
// table) is per page, as in hardware TLB fills.
func (pt *PageTable) check(p PKRU, off, n uint64, write bool) error {
	if n == 0 {
		return nil
	}
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	first := off / shm.PageSize
	last := (off + n - 1) / shm.PageSize
	for pg := first; pg <= last && pg < uint64(len(pt.pkeys)); pg++ {
		k := pt.pkeys[pg]
		if write && !p.CanWrite(k) || !write && !p.CanRead(k) {
			return &ProtFault{Off: off, Len: n, Write: write, Key: k, PKRU: p}
		}
	}
	return nil
}

// A ProtFault is the protection-key violation signal: the analog of the
// SIGSEGV with si_code SEGV_PKUERR that hardware raises when the pkru
// register denies an access.
type ProtFault struct {
	Off   uint64
	Len   uint64
	Write bool
	Key   Key
	PKRU  PKRU
}

// ContainedAttack marks a ProtFault as a *contained* violation for the gate
// hardening layer: the denial itself is the proof that no data moved. The
// hodor trampoline checks for this marker interface when a call unwinds so
// containment can be counted separately from genuine crashes.
func (f *ProtFault) ContainedAttack() {}

func (f *ProtFault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("pku: protection fault: %s of %d bytes at %#x denied by %v for key %d (SEGV_PKUERR)",
		kind, f.Len, f.Off, f.PKRU, f.Key)
}
