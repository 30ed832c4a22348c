package ralloc

import "plibmc/internal/shm"

// Persistent pointers.
//
// A pptr is Ralloc's position-independent smart pointer: a word that holds
// the *signed distance* from its own location to its target (Chen et al.,
// MICRO '17). Because both ends live in the same shared heap, the distance
// is the same no matter where a process maps the heap, so a pptr can be
// converted to and from a native pointer in any address space. The paper
// converts every pointer in the memcached K-V store to a pptr.
//
// Encoding: 0 represents nil (a pointer can never legitimately point at
// itself). Otherwise the word is int64(target - at) where at is the pptr's
// own heap offset.

// distance encodes a pptr stored at heap offset at that points to target.
func distance(at, target uint64) uint64 {
	if target == 0 {
		return 0
	}
	return uint64(int64(target) - int64(at))
}

// StorePptr writes a pptr at heap offset at pointing to heap offset target.
// target == 0 stores nil.
func StorePptr(h *shm.Heap, at, target uint64) { h.Store64(at, distance(at, target)) }

// RelaxedStorePptr is StorePptr through the relaxed accessor, for a block's
// first word before the block is published: a losing free-list pop may
// still be reading that word (see "Global free lists" in alloc.go).
func RelaxedStorePptr(h *shm.Heap, at, target uint64) { h.RelaxedStore64(at, distance(at, target)) }

// LoadPptr reads the pptr at heap offset at, returning the target heap
// offset (0 for nil).
func LoadPptr(h *shm.Heap, at uint64) uint64 {
	d := h.Load64(at)
	if d == 0 {
		return 0
	}
	return uint64(int64(at) + int64(d))
}

// AtomicLoadPptr is LoadPptr with an atomic read of the distance word, for
// fields read outside their structure's lock.
func AtomicLoadPptr(h *shm.Heap, at uint64) uint64 {
	d := h.AtomicLoad64(at)
	if d == 0 {
		return 0
	}
	return uint64(int64(at) + int64(d))
}

// AtomicStorePptr is StorePptr with an atomic write of the distance word.
func AtomicStorePptr(h *shm.Heap, at, target uint64) { h.AtomicStore64(at, distance(at, target)) }

// ResolveVirtual converts the pptr at heap offset at into a virtual address
// in the given view — the pptr<T> → T* conversion clients perform. It
// returns 0 for nil.
func ResolveVirtual(h *shm.Heap, v *shm.View, at uint64) uint64 {
	t := LoadPptr(h, at)
	if t == 0 {
		return 0
	}
	return v.Addr(t)
}
