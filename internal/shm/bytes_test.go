package shm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// The bulk routines against a byte-at-a-time reference.

type bulkKind int

const (
	bulkRead    bulkKind = iota // fills buf from the heap
	bulkWrite                   // stores buf to the heap
	bulkZero                    // clears len(buf) heap bytes
	bulkCompare                 // reports whether the heap bytes match buf
)

type bulkRoutine struct {
	name string
	kind bulkKind
	// run applies the routine to the len(buf) bytes at off and returns a
	// compare's verdict (true for the others).
	run func(h *Heap, off uint64, buf []byte) bool
}

var bulkRoutines = []bulkRoutine{
	{"ReadBytes", bulkRead, func(h *Heap, off uint64, buf []byte) bool { h.ReadBytes(off, buf); return true }},
	{"AtomicReadBytes", bulkRead, func(h *Heap, off uint64, buf []byte) bool { h.AtomicReadBytes(off, buf); return true }},
	{"Bytes", bulkRead, func(h *Heap, off uint64, buf []byte) bool { copy(buf, h.Bytes(off, uint64(len(buf)))); return true }},
	{"WriteBytes", bulkWrite, func(h *Heap, off uint64, buf []byte) bool { h.WriteBytes(off, buf); return true }},
	{"AtomicWriteBytes", bulkWrite, func(h *Heap, off uint64, buf []byte) bool { h.AtomicWriteBytes(off, buf); return true }},
	{"Zero", bulkZero, func(h *Heap, off uint64, buf []byte) bool { h.Zero(off, uint64(len(buf))); return true }},
	{"EqualBytes", bulkCompare, func(h *Heap, off uint64, buf []byte) bool { return h.EqualBytes(off, buf) }},
	{"SumBytes", bulkCompare, func(h *Heap, off uint64, buf []byte) bool {
		return h.SumBytes(off, uint64(len(buf))) == CRC32C(0, buf)
	}},
}

// snapshot reads the whole heap through the word array, sharing nothing
// with the routines under test (which go through the byte view).
func snapshot(h *Heap) []byte { return snapshotWords(h, 0, uint64(len(h.words))) }

// snapshotWords is snapshot for words lo up to hi.
func snapshotWords(h *Heap, lo, hi uint64) []byte {
	out := make([]byte, (hi-lo)*WordSize)
	for i, w := range h.words[lo:hi] {
		binary.LittleEndian.PutUint64(out[i*WordSize:], w)
	}
	return out
}

func catchFault(f func()) (fault *Fault) {
	defer func() {
		if r := recover(); r != nil {
			fault = r.(*Fault)
		}
	}()
	f()
	return nil
}

func TestBulkRoutinesMatchByteReference(t *testing.T) {
	const heapBytes = 3 * PageSize
	var lengths []uint64
	for n := uint64(0); n <= 72; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 128)
	for n := uint64(4095); n <= 4105; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 5120)

	h := New(heapBytes)
	for w := range h.words {
		h.words[w] = uint64(w+1) * 0x9e3779b97f4a7c15
	}
	model := snapshot(h)
	salt := 0 // so no write stores what an earlier case left there

	// one runs r on the n heap bytes at off with a caller slice that starts
	// bufAlign bytes past a word boundary.
	one := func(r bulkRoutine, off, n uint64, bufAlign int) {
		what := fmt.Sprintf("%s(off=%d, n=%d, caller slice at +%d)", r.name, off, n, bufAlign)
		buf := make([]byte, n+WordSize)[bufAlign:][:n]
		want := model[off : off+n]
		switch r.kind {
		case bulkWrite:
			salt++
			for i := range buf {
				buf[i] = byte(i*7 + salt)
			}
			r.run(h, off, buf)
			copy(want, buf)
		case bulkZero:
			r.run(h, off, buf)
			copy(want, buf)
		case bulkRead:
			r.run(h, off, buf)
			if !bytes.Equal(buf, want) {
				t.Fatalf("%s returned wrong bytes", what)
			}
		case bulkCompare:
			copy(buf, want)
			if !r.run(h, off, buf) {
				t.Fatalf("%s = false on identical bytes", what)
			}
			for _, i := range []uint64{0, n / 2, n - 1} {
				if n == 0 {
					break
				}
				buf[i] ^= 0x10
				if r.run(h, off, buf) {
					t.Fatalf("%s = true with byte %d different", what, i)
				}
				buf[i] ^= 0x10
			}
		}
		// The span and eight words on either side of it; the rest of the
		// heap is compared once per routine and heap alignment below.
		lo := off/WordSize - 8
		hi := min((off+n)/WordSize+9, uint64(len(h.words)))
		if got := snapshotWords(h, lo, hi); !bytes.Equal(got, model[lo*WordSize:hi*WordSize]) {
			t.Fatalf("%s: heap words %d..%d = %x, want %x", what, lo, hi, got, model[lo*WordSize:hi*WordSize])
		}
	}

	for _, r := range bulkRoutines {
		for align := uint64(0); align < WordSize; align++ {
			for _, n := range lengths {
				for bufAlign := 0; bufAlign < WordSize; bufAlign++ {
					// In the interior, with live bytes on both sides; and,
					// once per length, ending exactly at the heap's last byte
					// (the lengths 0..72 put that start at every alignment too).
					one(r, 64+align, n, bufAlign)
					if align == 0 {
						one(r, heapBytes-n, n, bufAlign)
					}
				}
			}
			if !bytes.Equal(snapshot(h), model) {
				t.Fatalf("%s at heap alignment %d stored outside the span and its neighbours", r.name, align)
			}
		}
	}
}

func TestBulkRoutinesFault(t *testing.T) {
	h := New(PageSize)
	for w := range h.words {
		h.words[w] = ^uint64(0)
	}
	model := snapshot(h)
	size := h.Size()
	cases := []struct{ off, n uint64 }{
		{size - 7, 8},        // one past the end, unaligned
		{size - 8, 9},        // one past the end, aligned
		{size, 1},            // starts at the end
		{size + 1, 0},        // empty, but based beyond one-past-the-end
		{^uint64(0) - 3, 16}, // off+n wraps to a small number
	}
	for _, r := range bulkRoutines {
		for _, c := range cases {
			f := catchFault(func() { r.run(h, c.off, make([]byte, c.n)) })
			if f == nil {
				t.Fatalf("%s(off=%#x, n=%d): no fault", r.name, c.off, c.n)
			}
			if write := r.kind == bulkWrite || r.kind == bulkZero; f.Off != c.off || f.Len != c.n || f.Write != write {
				t.Fatalf("%s(off=%#x, n=%d): fault %+v", r.name, c.off, c.n, *f)
			}
		}
	}
	if !bytes.Equal(snapshot(h), model) {
		t.Fatal("a faulting routine stored to the heap before it faulted")
	}
	// Bytes takes its length as a number, which a corrupt header can make
	// anything: it must fault before it allocates.
	for _, n := range []uint64{size - 7, 1 << 40, ^uint64(0)} {
		if f := catchFault(func() { h.Bytes(8, n) }); f == nil || f.Off != 8 || f.Len != n {
			t.Fatalf("Bytes(8, %d): fault %+v", n, f)
		}
	}
}

// BenchmarkHeapBytes prices the bulk routines at the two value sizes
// the ledger's workloads use. No thresholds: compare two runs.
func BenchmarkHeapBytes(b *testing.B) {
	const base = 4096 // word-aligned, like every item's key and value
	h := New(64 << 10)
	for _, r := range bulkRoutines {
		name := strings.ToLower(strings.TrimSuffix(r.name, "Bytes"))
		if name == "" {
			name = "bytes" // Bytes itself: read plus the allocation
		}
		for _, sz := range []struct {
			name string
			n    int
		}{{"128", 128}, {"5K", 5120}} {
			b.Run(name+"/"+sz.name, func(b *testing.B) {
				buf := make([]byte, sz.n)
				h.ReadBytes(base, buf) // equal compares the heap with itself
				b.SetBytes(int64(sz.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !r.run(h, base, buf) {
						b.Fatal("EqualBytes = false on identical bytes")
					}
				}
			})
		}
	}
}
