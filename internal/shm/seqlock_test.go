package shm

import (
	"bytes"
	"sync"
	"testing"
)

func TestBoundaryAccess(t *testing.T) {
	h := New(PageSize)
	size := h.Size()

	// One byte at the last valid offset works through both copy paths.
	h.WriteBytes(size-1, []byte{0xab})
	var one [1]byte
	h.ReadBytes(size-1, one[:])
	if one[0] != 0xab {
		t.Fatalf("byte at size-1 = %#x", one[0])
	}
	h.AtomicReadBytes(size-1, one[:])
	if one[0] != 0xab {
		t.Fatalf("atomic byte at size-1 = %#x", one[0])
	}

	// Two bytes starting at size-1 run past the end.
	mustFault(t, func() { h.ReadBytes(size-1, make([]byte, 2)) })
	mustFault(t, func() { h.WriteBytes(size-1, make([]byte, 2)) })
	mustFault(t, func() { h.AtomicReadBytes(size-1, make([]byte, 2)) })
	mustFault(t, func() { h.AtomicWriteBytes(size-1, make([]byte, 2)) })

	// Zero-length accesses: allowed exactly at the end (one-past-the-end
	// pointer rule), rejected beyond it — consistently for reads and writes.
	h.ReadBytes(size, nil)
	h.WriteBytes(size, nil)
	h.AtomicReadBytes(size, nil)
	mustFault(t, func() { h.ReadBytes(size+1, nil) })
	mustFault(t, func() { h.WriteBytes(size+1, nil) })
	mustFault(t, func() { h.AtomicReadBytes(size+1, nil) })
	mustFault(t, func() { h.Zero(size+1, 0) })

	// Nonzero length at the end still faults.
	mustFault(t, func() { h.ReadBytes(size, make([]byte, 1)) })

	// Offsets that would overflow off+n must not wrap around the check.
	mustFault(t, func() { h.ReadBytes(^uint64(0), nil) })
	mustFault(t, func() { h.ReadBytes(^uint64(0)-7, make([]byte, 8)) })
}

func TestRelaxedAccessors(t *testing.T) {
	h := New(PageSize)
	h.RelaxedStore64(8, 0x1122334455667788)
	if got := h.RelaxedLoad64(8); got != 0x1122334455667788 {
		t.Fatalf("RelaxedLoad64 = %#x", got)
	}
	// 32-bit halves round-trip without clobbering each other.
	h.RelaxedStore32(16, 0xaaaaaaaa)
	h.RelaxedStore32(20, 0xbbbbbbbb)
	if h.RelaxedLoad32(16) != 0xaaaaaaaa || h.RelaxedLoad32(20) != 0xbbbbbbbb {
		t.Fatalf("RelaxedLoad32 halves = %#x %#x", h.RelaxedLoad32(16), h.RelaxedLoad32(20))
	}
	if h.Load64(16) != 0xbbbbbbbbaaaaaaaa {
		t.Fatalf("combined word = %#x", h.Load64(16))
	}
	mustFault(t, func() { h.RelaxedLoad64(h.Size()) })
	mustFault(t, func() { h.RelaxedLoad32(2) })
	mustFault(t, func() { h.RelaxedStore32(h.Size(), 0) })
}

func TestAtomicReadWriteBytes(t *testing.T) {
	h := New(PageSize)
	// Misaligned span exercising head, bulk and tail paths.
	src := make([]byte, 61)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	h.AtomicWriteBytes(13, src)
	dst := make([]byte, len(src))
	h.AtomicReadBytes(13, dst)
	if !bytes.Equal(src, dst) {
		t.Fatalf("atomic roundtrip mismatch: %x != %x", dst, src)
	}
	// The relaxed copies interoperate with the plain ones byte for byte.
	plain := h.Bytes(13, uint64(len(src)))
	if !bytes.Equal(plain, src) {
		t.Fatalf("plain read of atomic write = %x", plain)
	}
	// Neighbouring bytes are untouched by the edge read-modify-writes.
	if h.Bytes(12, 1)[0] != 0 || h.Bytes(13+uint64(len(src)), 1)[0] != 0 {
		t.Fatal("AtomicWriteBytes scribbled outside its span")
	}
}

// TestSeqlockProtocol drives the full reader/writer protocol concurrently.
// The writer keeps rewriting a 48-byte record (all bytes equal to a
// generation number) under a seqlock; readers that validate must never
// observe a mixed record. Run with -race this also proves the relaxed
// accessors keep the detector quiet.
func TestSeqlockProtocol(t *testing.T) {
	h := New(PageSize)
	const seq, data, n = 0, 64, 48
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, n)
		for gen := byte(1); ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range buf {
				buf[i] = gen
			}
			h.SeqWriteBegin(seq)
			h.AtomicWriteBytes(data, buf)
			h.SeqWriteEnd(seq)
		}
	}()
	validated := 0
	buf := make([]byte, n)
	for i := 0; i < 20000; i++ {
		s0 := h.SeqRead(seq)
		if s0&1 != 0 {
			continue
		}
		h.AtomicReadBytes(data, buf)
		if !h.SeqValidate(seq, s0) {
			continue
		}
		validated++
		for j := 1; j < n; j++ {
			if buf[j] != buf[0] {
				t.Fatalf("validated read is torn: %x", buf)
			}
		}
	}
	close(stop)
	wg.Wait()
	if validated == 0 {
		t.Fatal("no read ever validated")
	}
}

func TestSeqValidateRejectsOddAndChanged(t *testing.T) {
	h := New(PageSize)
	if h.SeqRead(0) != 0 {
		t.Fatal("fresh seqlock not zero")
	}
	h.SeqWriteBegin(0)
	if h.SeqValidate(0, h.SeqRead(0)) {
		t.Fatal("validated against an odd (writer-active) sequence")
	}
	h.SeqWriteEnd(0)
	s0 := h.SeqRead(0)
	h.SeqWriteBegin(0)
	h.SeqWriteEnd(0)
	if h.SeqValidate(0, s0) {
		t.Fatal("validated across a writer section")
	}
	if !h.SeqValidate(0, h.SeqRead(0)) {
		t.Fatal("stable sequence failed to validate")
	}
}
