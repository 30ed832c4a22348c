package shm

import "bytes"

// Bulk byte routines.
//
// Each is one range check and one runtime primitive — memmove, memequal,
// memclr, the hardware CRC — over the bytes where they lie (Heap.view).
// The ones here touch the heap with plain accesses. AtomicReadBytes and
// AtomicWriteBytes, for data a seqlock reader may be probing, live beside
// the relaxed word accessors: the same copy in the normal build
// (relaxed_norace.go), per-word sync/atomic under the race detector
// (relaxed_race.go), which therefore keeps seeing plain accesses as plain
// and deliberate ones as deliberate.

// view range-checks the n bytes at off and returns them in place. Callers
// copy, compare, clear or sum them and drop the slice.
func (h *Heap) view(off, n uint64, write bool) []byte {
	h.check(off, n, write)
	return h.raw[off : off+n]
}

// ReadBytes copies len(dst) bytes starting at byte offset off into dst.
func (h *Heap) ReadBytes(off uint64, dst []byte) {
	copy(dst, h.view(off, uint64(len(dst)), false))
}

// WriteBytes copies src into the heap starting at byte offset off.
func (h *Heap) WriteBytes(off uint64, src []byte) {
	copy(h.view(off, uint64(len(src)), true), src)
}

// Bytes returns a fresh copy of n bytes starting at off.
func (h *Heap) Bytes(off, n uint64) []byte {
	return append([]byte(nil), h.view(off, n, false)...)
}

// EqualBytes reports whether the len(b) bytes at off equal b, without
// allocating.
func (h *Heap) EqualBytes(off uint64, b []byte) bool {
	return bytes.Equal(h.view(off, uint64(len(b)), false), b)
}

// SumBytes returns the CRC-32C of the n bytes at off, computed in place.
func (h *Heap) SumBytes(off, n uint64) uint32 {
	return CRC32C(0, h.view(off, n, false))
}

// Zero clears n bytes starting at off.
func (h *Heap) Zero(off, n uint64) {
	clear(h.view(off, n, true))
}
