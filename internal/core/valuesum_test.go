package core

import (
	"bytes"
	"testing"
)

func value5K() []byte {
	v := make([]byte, 5120)
	for i := range v {
		v[i] = byte(i*131 + i>>8)
	}
	return v
}

// TestValueSumDetects: every single-fault shape the scrubber relies on the
// sum to catch changes it.
func TestValueSumDetects(t *testing.T) {
	v := value5K()
	want := valueSum(v)
	for _, i := range []int{0, len(v) / 2, len(v) - 1} {
		for bit := 0; bit < 8; bit++ {
			v[i] ^= 1 << bit
			if valueSum(v) == want {
				t.Fatalf("flipping bit %d of byte %d left the sum unchanged", bit, i)
			}
			v[i] ^= 1 << bit
		}
	}
	// Two 8-byte words exchanged: invisible to any sum that merely adds or
	// XORs words together.
	swapped := bytes.Clone(v)
	copy(swapped[64:72], v[4096:4104])
	copy(swapped[4096:4104], v[64:72])
	if valueSum(swapped) == want {
		t.Fatal("transposing two words left the sum unchanged")
	}
	if valueSum(v[:len(v)-1]) == want {
		t.Fatal("truncating one byte left the sum unchanged")
	}
	zeros := make([]byte, 64)
	if valueSum(zeros[:63]) == valueSum(zeros) {
		t.Fatal("all-zero values of different lengths share a sum")
	}
	// A zeroed header word must never verify, not even for the empty value.
	if valueSum(nil) == 0 || valueSum(zeros[:0]) == 0 || valueSum(zeros) == 0 {
		t.Fatal("a valid sum is zero")
	}
}

// TestRepairRestampsTornIncr: a thread dies between an in-place Incr's
// value write and its checksum write. The bytes are the seqlock-protected
// truth, so repair must keep the item and re-stamp the sum — after which
// the scrubber has nothing to quarantine.
func TestRepairRestampsTornIncr(t *testing.T) {
	s, c1 := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	if err := c1.Set([]byte("counter"), []byte("41"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c1.Set([]byte("bystander"), value5K(), 0, 0); err != nil {
		t.Fatal(err)
	}
	c2 := s.NewCtx(2)
	crashOp(t, "ops.incr.mid_rewrite", func() { do(c2, BatchOp{Code: BatchIncr, Key: []byte("counter"), Delta: 1}) })

	it := c1.DebugItemOffset([]byte("counter"))
	if it == 0 || s.H.Load64(it+itValSum) != valueSum([]byte("41")) {
		t.Fatal("crash point moved: the sum was already rewritten")
	}
	dead := deadOnly(2)
	s.ForceReleaseDeadLocks(dead)
	s.RetireDeadReaders(dead)
	s.RepairGate()
	rep, err := s.Repair(c1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ValueSumsRestamped != 1 || rep.ItemsKept != 2 || rep.ItemsDropped != 0 {
		t.Fatalf("repair report %+v, want 1 sum restamped, 2 items kept", rep)
	}
	if v, _, _, err := c1.Get([]byte("counter")); err != nil || string(v) != "42" {
		t.Fatalf("counter after repair = %q, %v", v, err)
	}
	var cursor uint64
	if scanned, corrupt := c1.ScrubChains(&cursor, 16); scanned != 2 || corrupt != 0 {
		t.Fatalf("scrub after repair: scanned %d, corrupt %d", scanned, corrupt)
	}
}

// TestSetStoresWhatLanded: a Set's value goes from the caller's slice
// straight into the item and is summed there. At every length class the
// bytes come back, the scrubber's deep verification accepts the item, and
// neither the caller's slice afterwards nor a Get's result is an alias of
// the heap.
func TestSetStoresWhatLanded(t *testing.T) {
	s, c := newStore(t, 1<<23, Options{HashPower: 8, NumItemLocks: 16})
	key := []byte("landed")
	for _, n := range []int{0, 1, 7, 8, 9, 128, 5120, MaxValueLen} {
		val := make([]byte, n)
		for i := range val {
			val[i] = byte(i*131 + i>>8 + n)
		}
		want := bytes.Clone(val)
		if err := c.Set(key, val, 0, 0); err != nil {
			t.Fatalf("Set of %d bytes: %v", n, err)
		}
		for i := range val {
			val[i] ^= 0xff // the caller reuses its buffer
		}
		got, _, _, err := c.Get(key)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get after a %d-byte Set: wrong bytes (err %v)", n, err)
		}
		for i := range got {
			got[i] ^= 0xff // and scribbles on what it was handed
		}
		if again, _, _, err := c.Get(key); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("second Get after a %d-byte Set: wrong bytes (err %v)", n, err)
		}
		it := c.DebugItemOffset(key)
		if sum := s.H.Load64(it + itValSum); sum != valueSum(want) {
			t.Fatalf("%d bytes: stored sum %#x, want %#x", n, sum, valueSum(want))
		}
		lock := s.itemLockOff(s.itemHash(it))
		c.lock(lock)
		reason := c.deepVerifyLocked(it)
		c.unlock(lock)
		if reason != "" {
			t.Fatalf("%d bytes: deep verification: %s", n, reason)
		}
	}
}

// TestSet5KDoesNotAllocate: the value checksum and the copy work in
// place; a 5 KB Set must stay off the Go heap.
func TestSet5KDoesNotAllocate(t *testing.T) {
	_, c := newStore(t, 1<<24, Options{HashPower: 8, NumItemLocks: 16})
	key, val := []byte("key"), value5K()
	if err := c.Set(key, val, 0, 0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := c.Set(key, val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("5 KB Set: %v allocs per run", n)
	}
}

var sumSink uint64

func BenchmarkValueSum(b *testing.B) {
	for _, sz := range []struct {
		name string
		n    int
	}{{"128", 128}, {"5K", 5120}} {
		b.Run(sz.name, func(b *testing.B) {
			v := value5K()[:sz.n]
			b.SetBytes(int64(sz.n))
			for i := 0; i < b.N; i++ {
				sumSink += valueSum(v)
			}
		})
	}
}
