//go:build !race

package shm

// Relaxed word accessors, normal build: plain loads and stores.
//
// The optimistic (seqlock-validated) read path loads words that a writer
// may be mutating concurrently. On the architectures this simulation
// models (x86-64; the package header pins little-endian byte order for the
// same reason), an aligned word access is a single instruction, so a load
// can be stale but never torn — and stale values are discarded by the
// sequence validation that brackets every optimistic read section. Plain
// accesses therefore cost nothing over ordinary memory traffic.
//
// Under the race detector this file is replaced by relaxed_race.go, which
// routes the same accessors through sync/atomic so the detector can see
// that the discipline is deliberate.

func relaxedLoadWord(p *uint64) uint64 { return *p }

func relaxedStoreWord(p *uint64, v uint64) { *p = v }

// AtomicReadBytes copies len(dst) bytes starting at off into dst while a
// lock-holding writer may be rewriting them. The copy may be stale or a
// blend of two writes, which is what callers already had to survive: the
// optimistic path discards it when its seqlock validation fails, and the
// locked readers that copy after unlocking could always see a same-width
// increment half done across words (the CAS generation tells its holder).
// Nothing relies on words arriving whole, though the runtime's memmove
// does move aligned words with single loads and stores.
func (h *Heap) AtomicReadBytes(off uint64, dst []byte) {
	copy(dst, h.view(off, uint64(len(dst)), false))
}

// AtomicWriteBytes copies src into the heap at off, the writer-side
// counterpart of AtomicReadBytes for in-place value rewrites under a held
// lock.
func (h *Heap) AtomicWriteBytes(off uint64, src []byte) {
	copy(h.view(off, uint64(len(src)), true), src)
}
