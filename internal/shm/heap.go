// Package shm provides the shared-memory substrate for the protected-library
// key-value store: a word-addressed heap that can be mapped into multiple
// simulated address spaces ("views"), persisted to a backing file, and used
// for cross-process synchronization via heap-resident locks.
//
// The heap plays the role of the mmap'd file that Ralloc manages in the
// paper.  All offsets in this package are byte offsets from the start of the
// heap; word operations require 8-byte alignment.  Byte order within words is
// little-endian, matching x86, so byte-level and word-level accesses to the
// same location agree.
package shm

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

const (
	// WordSize is the size in bytes of the heap's native word.
	WordSize = 8
	// PageSize is the protection granularity: protection keys are assigned
	// to whole pages (see package pku).
	PageSize = 4096
)

// Heap is a shared memory region. A single Heap is shared by every simulated
// process that attaches to the store; each process addresses it through its
// own View. The zero value is not usable; create heaps with New or Load.
type Heap struct {
	words []uint64
	raw   []byte // the memory of words as bytes (see newHeap)
	size  uint64 // in bytes; always a multiple of PageSize
}

// newHeap builds every heap: zeroed words, and one byte view of them so
// the bulk routines (bytes.go) run at memmove speed. The view is this
// repository's only use of unsafe. It is Go-heap memory like words, so the
// race detector shadows an access through either alike, and it agrees with
// the word accessors byte for byte on the little-endian machines the
// package header names. No alias of it leaves the package.
func newHeap(size uint64) *Heap {
	words := make([]uint64, size/WordSize)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), size)
	return &Heap{words: words, raw: raw, size: size}
}

// New creates a heap of the given size in bytes, rounded up to a whole
// number of pages. The heap starts zeroed.
func New(size uint64) *Heap {
	if size == 0 {
		size = PageSize
	}
	return newHeap((size + PageSize - 1) &^ uint64(PageSize-1))
}

// Size returns the heap size in bytes.
func (h *Heap) Size() uint64 { return h.size }

// Pages returns the number of protection pages in the heap.
func (h *Heap) Pages() int { return int(h.size / PageSize) }

// A Fault describes an out-of-range or misaligned heap access. It is the
// shared-memory analog of SIGSEGV/SIGBUS and is delivered by panicking,
// because — exactly as with a real segfault — the faulting code cannot
// continue. The hodor runtime recovers Faults at the trampoline boundary.
type Fault struct {
	Off   uint64 // faulting byte offset
	Len   uint64 // length of the attempted access
	Write bool   // true if the access was a store
	Why   string
}

func (f *Fault) Error() string {
	kind := "load"
	if f.Write {
		kind = "store"
	}
	return fmt.Sprintf("shm: fault: %s of %d bytes at offset %#x: %s", kind, f.Len, f.Off, f.Why)
}

func (h *Heap) check(off, n uint64, write bool) {
	// Overflow-proof form: a base past the end of the heap faults even for
	// zero-length accesses (off == h.size is allowed, matching the usual
	// one-past-the-end pointer rule), and the length check cannot wrap
	// because it subtracts on the side already known to be in range.
	if off > h.size || n > h.size-off {
		panic(&Fault{Off: off, Len: n, Write: write, Why: "out of range"})
	}
}

func (h *Heap) checkWord(off uint64, write bool) {
	h.check(off, WordSize, write)
	if off%WordSize != 0 {
		panic(&Fault{Off: off, Len: WordSize, Write: write, Why: "misaligned word access"})
	}
}

// Load64 returns the word at byte offset off. off must be 8-aligned.
func (h *Heap) Load64(off uint64) uint64 {
	h.checkWord(off, false)
	return h.words[off/WordSize]
}

// Store64 stores v at byte offset off. off must be 8-aligned.
func (h *Heap) Store64(off uint64, v uint64) {
	h.checkWord(off, true)
	h.words[off/WordSize] = v
}

// AtomicLoad64 atomically loads the word at off.
func (h *Heap) AtomicLoad64(off uint64) uint64 {
	h.checkWord(off, false)
	return atomic.LoadUint64(&h.words[off/WordSize])
}

// AtomicStore64 atomically stores v at off.
func (h *Heap) AtomicStore64(off uint64, v uint64) {
	h.checkWord(off, true)
	atomic.StoreUint64(&h.words[off/WordSize], v)
}

// CAS64 performs an atomic compare-and-swap on the word at off.
func (h *Heap) CAS64(off uint64, old, new uint64) bool {
	h.checkWord(off, true)
	return atomic.CompareAndSwapUint64(&h.words[off/WordSize], old, new)
}

// Add64 atomically adds delta to the word at off and returns the new value.
// Negative deltas are expressed in two's complement by the caller
// (e.g. Add64(off, ^uint64(0)) subtracts one).
func (h *Heap) Add64(off uint64, delta uint64) uint64 {
	h.checkWord(off, true)
	return atomic.AddUint64(&h.words[off/WordSize], delta)
}

// Swap64 atomically swaps the word at off with v and returns the old value.
func (h *Heap) Swap64(off uint64, v uint64) uint64 {
	h.checkWord(off, true)
	return atomic.SwapUint64(&h.words[off/WordSize], v)
}

// Load32 returns the 32-bit value at byte offset off. off must be 4-aligned.
func (h *Heap) Load32(off uint64) uint32 {
	h.check(off, 4, false)
	if off%4 != 0 {
		panic(&Fault{Off: off, Len: 4, Why: "misaligned 32-bit access"})
	}
	w := h.words[off/WordSize]
	if off%WordSize == 4 {
		return uint32(w >> 32)
	}
	return uint32(w)
}

// Store32 stores a 32-bit value at byte offset off. off must be 4-aligned.
func (h *Heap) Store32(off uint64, v uint32) {
	h.check(off, 4, true)
	if off%4 != 0 {
		panic(&Fault{Off: off, Len: 4, Write: true, Why: "misaligned 32-bit access"})
	}
	w := &h.words[off/WordSize]
	if off%WordSize == 4 {
		*w = (*w & 0x00000000ffffffff) | uint64(v)<<32
	} else {
		*w = (*w & 0xffffffff00000000) | uint64(v)
	}
}
