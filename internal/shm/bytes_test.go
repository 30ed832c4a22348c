package shm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// The six bulk routines against a byte-at-a-time reference.

type bulkRoutine struct {
	name  string
	write bool
	// run applies the routine to the n bytes at off. buf is n bytes of
	// caller data: the source of a write, the destination of a read, the
	// right-hand side of a compare. It returns EqualBytes' verdict (true
	// for the others).
	run func(h *Heap, off uint64, buf []byte) bool
}

var bulkRoutines = []bulkRoutine{
	{"ReadBytes", false, func(h *Heap, off uint64, buf []byte) bool { h.ReadBytes(off, buf); return true }},
	{"AtomicReadBytes", false, func(h *Heap, off uint64, buf []byte) bool { h.AtomicReadBytes(off, buf); return true }},
	{"WriteBytes", true, func(h *Heap, off uint64, buf []byte) bool { h.WriteBytes(off, buf); return true }},
	{"AtomicWriteBytes", true, func(h *Heap, off uint64, buf []byte) bool { h.AtomicWriteBytes(off, buf); return true }},
	{"EqualBytes", false, func(h *Heap, off uint64, buf []byte) bool { return h.EqualBytes(off, buf) }},
	{"Zero", true, func(h *Heap, off uint64, buf []byte) bool { h.Zero(off, uint64(len(buf))); return true }},
}

// snapshot reads the whole heap one byte at a time through the word array,
// sharing nothing with the routines under test.
func snapshot(h *Heap) []byte {
	out := make([]byte, h.size)
	for i := range out {
		out[i] = byte(h.words[i/WordSize] >> (i % WordSize * 8))
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
	for n := uint64(0); n <= 40; n++ {
		lengths = append(lengths, n)
	}
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

	for _, r := range bulkRoutines {
		for align := uint64(0); align < WordSize; align++ {
			for _, n := range lengths {
				// In the interior, with live bytes on both sides; and, once
				// per length, ending exactly at the heap's last byte (the
				// lengths 0..40 put that start at every alignment too).
				offs := []uint64{64 + align}
				if align == 0 {
					offs = append(offs, heapBytes-n)
				}
				for _, off := range offs {
					what := fmt.Sprintf("%s(off=%d, n=%d)", r.name, off, n)
					buf := make([]byte, n)
					want := model[off : off+n]
					switch r.name {
					case "WriteBytes", "AtomicWriteBytes":
						salt++
						for i := range buf {
							buf[i] = byte(i*7 + salt)
						}
						r.run(h, off, buf)
						copy(want, buf)
					case "Zero":
						r.run(h, off, buf)
						copy(want, buf)
					case "ReadBytes", "AtomicReadBytes":
						r.run(h, off, buf)
						if !bytes.Equal(buf, want) {
							t.Fatalf("%s returned wrong bytes", what)
						}
					case "EqualBytes":
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
					// The whole heap, so neighbours on both sides count.
					if got := snapshot(h); !bytes.Equal(got, model) {
						for i := range got {
							if got[i] != model[i] {
								t.Fatalf("%s: heap byte %d = %#x, want %#x", what, i, got[i], model[i])
							}
						}
					}
				}
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
			if f.Off != c.off || f.Len != c.n || f.Write != r.write {
				t.Fatalf("%s(off=%#x, n=%d): fault %+v", r.name, c.off, c.n, *f)
			}
		}
	}
	if !bytes.Equal(snapshot(h), model) {
		t.Fatal("a faulting routine stored to the heap before it faulted")
	}
}

// BenchmarkHeapBytes prices the six bulk routines at the two value sizes
// the ledger's workloads use. No thresholds: compare two runs.
func BenchmarkHeapBytes(b *testing.B) {
	const base = 4096 // word-aligned, like every item's key and value
	h := New(64 << 10)
	for _, r := range bulkRoutines {
		name := strings.ToLower(strings.TrimSuffix(r.name, "Bytes"))
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
