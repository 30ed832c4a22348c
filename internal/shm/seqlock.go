package shm

// Seqlocks and relaxed heap accessors.
//
// A seqlock is one heap-resident word: even while stable, odd while a
// writer is mutating the data it guards. Writers (who already hold the
// conventional lock for mutual exclusion among themselves) bump the word
// to odd before the first mutation and back to even after the last one.
// A lock-free reader samples the word, performs its reads with the
// Relaxed* accessors below, and then validates that the word is unchanged
// and even; on mismatch it discards everything it read and retries.
//
// The bumps use Add64, a full atomic RMW, so they order the writer's data
// stores between them. The reader's sample and validation use AtomicLoad64.
// Data accesses in between go through the Relaxed* accessors: plain word
// operations in normal builds (stale-but-never-torn on the x86-like memory
// model this package simulates), real atomics under the race detector —
// see relaxed_norace.go / relaxed_race.go.

// SeqRead atomically samples the seqlock word at off. The caller treats an
// odd value as "writer active" and retries or falls back.
func (h *Heap) SeqRead(off uint64) uint64 {
	return h.AtomicLoad64(off)
}

// SeqValidate re-samples the seqlock word and reports whether an optimistic
// read section that began at sequence start saw a stable snapshot.
func (h *Heap) SeqValidate(off, start uint64) bool {
	return start&1 == 0 && h.AtomicLoad64(off) == start
}

// SeqWriteBegin marks the guarded data as mutating (even → odd). The caller
// must already hold the writer-side lock; bumps are not self-synchronizing.
func (h *Heap) SeqWriteBegin(off uint64) {
	h.Add64(off, 1)
}

// SeqWriteEnd marks the guarded data as stable again (odd → even).
func (h *Heap) SeqWriteEnd(off uint64) {
	h.Add64(off, 1)
}

// RelaxedLoad64 loads the word at off with relaxed ordering (see package
// comment above). off must be 8-aligned.
func (h *Heap) RelaxedLoad64(off uint64) uint64 {
	h.checkWord(off, false)
	return relaxedLoadWord(&h.words[off/WordSize])
}

// RelaxedStore64 stores v at off with relaxed ordering. off must be
// 8-aligned. The caller must hold the writer-side lock for the word.
func (h *Heap) RelaxedStore64(off uint64, v uint64) {
	h.checkWord(off, true)
	relaxedStoreWord(&h.words[off/WordSize], v)
}

// RelaxedLoad32 loads the 32-bit value at off (4-aligned) with relaxed
// ordering, reading the containing word once so a concurrent writer of the
// other half cannot tear the access.
func (h *Heap) RelaxedLoad32(off uint64) uint32 {
	h.check(off, 4, false)
	if off%4 != 0 {
		panic(&Fault{Off: off, Len: 4, Why: "misaligned 32-bit access"})
	}
	w := relaxedLoadWord(&h.words[off/WordSize])
	if off%WordSize == 4 {
		return uint32(w >> 32)
	}
	return uint32(w)
}

// RelaxedStore32 stores a 32-bit value at off (4-aligned) as a full-word
// read-modify-write with relaxed ordering. The caller must hold the
// writer-side lock for the word: the RMW is not atomic against other
// writers, only safe against concurrent relaxed readers.
func (h *Heap) RelaxedStore32(off uint64, v uint32) {
	h.check(off, 4, true)
	if off%4 != 0 {
		panic(&Fault{Off: off, Len: 4, Write: true, Why: "misaligned 32-bit access"})
	}
	p := &h.words[off/WordSize]
	w := relaxedLoadWord(p)
	if off%WordSize == 4 {
		w = (w & 0x00000000ffffffff) | uint64(v)<<32
	} else {
		w = (w & 0xffffffff00000000) | uint64(v)
	}
	relaxedStoreWord(p, w)
}
