//go:build race

package shm

import (
	"encoding/binary"
	"sync/atomic"
)

// Relaxed word accessors, race-detector build: real atomics. The seqlock
// read path intentionally races with in-place writers and relies on
// sequence validation to discard anything it read during a mutation; the
// race detector cannot model that protocol, so these builds make every
// relaxed access an atomic one. That keeps `go test -race` meaningful for
// the rest of the code while the normal build pays nothing (see
// relaxed_norace.go).

func relaxedLoadWord(p *uint64) uint64 { return atomic.LoadUint64(p) }

func relaxedStoreWord(p *uint64, v uint64) { atomic.StoreUint64(p, v) }

// AtomicReadBytes and AtomicWriteBytes under the race detector: word by
// word through sync/atomic, a partial word at either edge handled as the
// bytes of its containing word (a write read-modify-writes it, so the
// caller's lock must cover it). See relaxed_norace.go for the contract.

func (h *Heap) AtomicReadBytes(off uint64, dst []byte) {
	h.check(off, uint64(len(dst)), false)
	var w [WordSize]byte
	for len(dst) > 0 {
		binary.LittleEndian.PutUint64(w[:], atomic.LoadUint64(&h.words[off/WordSize]))
		n := copy(dst, w[off%WordSize:])
		dst, off = dst[n:], off+uint64(n)
	}
}

func (h *Heap) AtomicWriteBytes(off uint64, src []byte) {
	h.check(off, uint64(len(src)), true)
	var w [WordSize]byte
	for len(src) > 0 {
		p := &h.words[off/WordSize]
		binary.LittleEndian.PutUint64(w[:], atomic.LoadUint64(p))
		n := copy(w[off%WordSize:], src)
		atomic.StoreUint64(p, binary.LittleEndian.Uint64(w[:]))
		src, off = src[n:], off+uint64(n)
	}
}
