package shm

import "encoding/binary"

// Bulk byte routines.
//
// All six share one shape: one range check, single bytes up to the first
// word boundary, whole words four at a time over a window of h.words
// sliced once up front (so the compiler proves every index in range and
// the loop body is loads and stores only), whole words singly, then the
// bytes that are left. ReadBytes, WriteBytes, EqualBytes and Zero touch
// the heap with plain accesses; AtomicReadBytes and AtomicWriteBytes are
// the same loops over the relaxed word accessors (relaxed_norace.go /
// relaxed_race.go) for data a seqlock reader may be probing. The two
// families stay separate functions so the race detector keeps seeing
// plain accesses as plain.

var le = binary.LittleEndian

// span checks the n-byte range at off and splits it: the first head bytes
// lie before a word boundary, ws are the whole words after them, and the
// caller handles the fewer than WordSize bytes that follow ws.
func (h *Heap) span(off, n uint64, write bool) (head uint64, ws []uint64) {
	h.check(off, n, write)
	head = min(-off%WordSize, n)
	lo := (off + head) / WordSize
	return head, h.words[lo : lo+(n-head)/WordSize]
}

// storeByte stores one byte without alignment requirements.
func (h *Heap) storeByte(off uint64, b byte) {
	sh := (off % WordSize) * 8
	w := &h.words[off/WordSize]
	*w = (*w &^ (uint64(0xff) << sh)) | uint64(b)<<sh
}

// loadByte loads one byte without alignment requirements.
func (h *Heap) loadByte(off uint64) byte {
	return byte(h.words[off/WordSize] >> ((off % WordSize) * 8))
}

// relaxedStoreByte is storeByte as a relaxed read-modify-write of the
// containing word; the caller's lock must cover the whole word.
func (h *Heap) relaxedStoreByte(off uint64, b byte) {
	sh := (off % WordSize) * 8
	w := &h.words[off/WordSize]
	relaxedStoreWord(w, (relaxedLoadWord(w)&^(uint64(0xff)<<sh))|uint64(b)<<sh)
}

// relaxedLoadByte is loadByte over a relaxed load of the containing word.
func (h *Heap) relaxedLoadByte(off uint64) byte {
	return byte(relaxedLoadWord(&h.words[off/WordSize]) >> ((off % WordSize) * 8))
}

// ReadBytes copies len(dst) bytes starting at byte offset off into dst.
func (h *Heap) ReadBytes(off uint64, dst []byte) {
	head, ws := h.span(off, uint64(len(dst)), false)
	for i := range dst[:head] {
		dst[i] = h.loadByte(off + uint64(i))
	}
	d := dst[head:]
	for ; len(ws) >= 4 && len(d) >= 32; ws, d = ws[4:], d[32:] {
		le.PutUint64(d[0:8], ws[0])
		le.PutUint64(d[8:16], ws[1])
		le.PutUint64(d[16:24], ws[2])
		le.PutUint64(d[24:32], ws[3])
	}
	for ; len(ws) >= 1 && len(d) >= 8; ws, d = ws[1:], d[8:] {
		le.PutUint64(d[0:8], ws[0])
	}
	off += uint64(len(dst) - len(d))
	for i := range d {
		d[i] = h.loadByte(off + uint64(i))
	}
}

// WriteBytes copies src into the heap starting at byte offset off.
func (h *Heap) WriteBytes(off uint64, src []byte) {
	head, ws := h.span(off, uint64(len(src)), true)
	for i, b := range src[:head] {
		h.storeByte(off+uint64(i), b)
	}
	s := src[head:]
	for ; len(ws) >= 4 && len(s) >= 32; ws, s = ws[4:], s[32:] {
		ws[0] = le.Uint64(s[0:8])
		ws[1] = le.Uint64(s[8:16])
		ws[2] = le.Uint64(s[16:24])
		ws[3] = le.Uint64(s[24:32])
	}
	for ; len(ws) >= 1 && len(s) >= 8; ws, s = ws[1:], s[8:] {
		ws[0] = le.Uint64(s[0:8])
	}
	off += uint64(len(src) - len(s))
	for i, b := range s {
		h.storeByte(off+uint64(i), b)
	}
}

// AtomicReadBytes copies len(dst) bytes starting at off into dst using
// word-granular relaxed loads: the copy may observe a stale or mid-update
// value (to be rejected by seqlock validation) but never a torn word, and
// it is race-detector clean against writers using the relaxed stores.
func (h *Heap) AtomicReadBytes(off uint64, dst []byte) {
	head, ws := h.span(off, uint64(len(dst)), false)
	for i := range dst[:head] {
		dst[i] = h.relaxedLoadByte(off + uint64(i))
	}
	d := dst[head:]
	for ; len(ws) >= 4 && len(d) >= 32; ws, d = ws[4:], d[32:] {
		le.PutUint64(d[0:8], relaxedLoadWord(&ws[0]))
		le.PutUint64(d[8:16], relaxedLoadWord(&ws[1]))
		le.PutUint64(d[16:24], relaxedLoadWord(&ws[2]))
		le.PutUint64(d[24:32], relaxedLoadWord(&ws[3]))
	}
	for ; len(ws) >= 1 && len(d) >= 8; ws, d = ws[1:], d[8:] {
		le.PutUint64(d[0:8], relaxedLoadWord(&ws[0]))
	}
	off += uint64(len(dst) - len(d))
	for i := range d {
		d[i] = h.relaxedLoadByte(off + uint64(i))
	}
}

// AtomicWriteBytes copies src into the heap at off using word-granular
// relaxed stores, the writer-side counterpart of AtomicReadBytes for
// in-place value rewrites under a held lock. Partial words at the edges
// are read-modify-written, so the caller's lock must cover them.
func (h *Heap) AtomicWriteBytes(off uint64, src []byte) {
	head, ws := h.span(off, uint64(len(src)), true)
	for i, b := range src[:head] {
		h.relaxedStoreByte(off+uint64(i), b)
	}
	s := src[head:]
	for ; len(ws) >= 4 && len(s) >= 32; ws, s = ws[4:], s[32:] {
		relaxedStoreWord(&ws[0], le.Uint64(s[0:8]))
		relaxedStoreWord(&ws[1], le.Uint64(s[8:16]))
		relaxedStoreWord(&ws[2], le.Uint64(s[16:24]))
		relaxedStoreWord(&ws[3], le.Uint64(s[24:32]))
	}
	for ; len(ws) >= 1 && len(s) >= 8; ws, s = ws[1:], s[8:] {
		relaxedStoreWord(&ws[0], le.Uint64(s[0:8]))
	}
	off += uint64(len(src) - len(s))
	for i, b := range s {
		h.relaxedStoreByte(off+uint64(i), b)
	}
}

// Bytes returns a fresh copy of n bytes starting at off.
func (h *Heap) Bytes(off, n uint64) []byte {
	b := make([]byte, n)
	h.ReadBytes(off, b)
	return b
}

// EqualBytes reports whether the len(b) bytes at off equal b, without
// allocating.
func (h *Heap) EqualBytes(off uint64, b []byte) bool {
	head, ws := h.span(off, uint64(len(b)), false)
	for i, c := range b[:head] {
		if h.loadByte(off+uint64(i)) != c {
			return false
		}
	}
	s := b[head:]
	for ; len(ws) >= 4 && len(s) >= 32; ws, s = ws[4:], s[32:] {
		if ws[0] != le.Uint64(s[0:8]) || ws[1] != le.Uint64(s[8:16]) ||
			ws[2] != le.Uint64(s[16:24]) || ws[3] != le.Uint64(s[24:32]) {
			return false
		}
	}
	for ; len(ws) >= 1 && len(s) >= 8; ws, s = ws[1:], s[8:] {
		if ws[0] != le.Uint64(s[0:8]) {
			return false
		}
	}
	off += uint64(len(b) - len(s))
	for i, c := range s {
		if h.loadByte(off+uint64(i)) != c {
			return false
		}
	}
	return true
}

// Zero clears n bytes starting at off.
func (h *Heap) Zero(off, n uint64) {
	head, ws := h.span(off, n, true)
	for i := uint64(0); i < head; i++ {
		h.storeByte(off+i, 0)
	}
	for i := range ws { // the compiler turns this loop into one memclr
		ws[i] = 0
	}
	for i := head + uint64(len(ws))*WordSize; i < n; i++ {
		h.storeByte(off+i, 0)
	}
}
