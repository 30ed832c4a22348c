package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"plibmc/internal/ring"
	"plibmc/internal/ycsb"
)

// TestSeqreadStressLinearizable hammers Get against concurrent Set/Delete
// on a shared key range and checks every retrieved value for internal
// consistency: it must carry the key it was stored under, a uniform filler
// from exactly one writer, and flags matching that writer. A torn seqlock
// read, a wrong-key match on a spliced chain, or a read from freed memory
// all violate one of these. Reader contexts cover the optimistic path, the
// injected-retry path, the exhausted-retries fallback, and a context
// without a reader slot; run with -race for the memory-model half of the argument.
func TestSeqreadStressLinearizable(t *testing.T) {
	s, _ := newStore(t, 1<<24, Options{HashPower: 10, NumItemLocks: 64, FixedSize: true})
	const writers = 3
	const writerIters = 4000
	const readerIters = 3000
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
	}

	fail := make(chan string, 16)
	var wg sync.WaitGroup

	// Seed a few keys so early readers see hits even if the scheduler (on
	// a small machine) runs whole goroutines back to back.
	{
		c := s.NewCtx(42)
		for _, k := range keys[:8] {
			if err := c.Set(k, append(append([]byte{}, k...), '|', 'A'), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}

	check := func(k, v []byte, flags uint32) string {
		if len(v) < len(k)+2 || !bytes.Equal(v[:len(k)], k) || v[len(k)] != '|' {
			return fmt.Sprintf("value %q does not carry key %q", v, k)
		}
		fill := v[len(k)+1]
		for _, b := range v[len(k)+1:] {
			if b != fill {
				return fmt.Sprintf("torn value %q for key %q", v, k)
			}
		}
		if flags != uint32(fill-'A') {
			return fmt.Sprintf("flags %d but filler %q for key %q", flags, fill, k)
		}
		return ""
	}

	// Four reader flavours: plain optimistic, one injected retry per call,
	// injections exhausting every attempt (permanent lock fallback), and a
	// context without a reader slot (locked reads only). Readers run a
	// fixed iteration count so they do real work even when goroutines end
	// up serialized on a single-core machine.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.NewCtx(uint64(200 + id))
			defer c.Close()
			switch id {
			case 1:
				c.forceSeqRetries = 1
			case 2:
				c.forceSeqRetries = optMaxAttempts
			case 3:
				c.releaseReaderSlot()
			}
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			for i := 0; i < readerIters; i++ {
				if i%64 == 63 {
					batch := [][]byte{
						keys[rng.Intn(len(keys))],
						keys[rng.Intn(len(keys))],
						keys[rng.Intn(len(keys))],
					}
					for j, res := range c.MGet(batch) {
						if res.Found {
							if msg := check(batch[j], res.Value, res.Flags); msg != "" {
								fail <- "mget: " + msg
								return
							}
						}
					}
					continue
				}
				k := keys[rng.Intn(len(keys))]
				v, flags, _, err := c.Get(k)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					fail <- fmt.Sprintf("get: %v", err)
					return
				}
				if msg := check(k, v, flags); msg != "" {
					fail <- msg
					return
				}
			}
		}(r)
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.NewCtx(uint64(100 + id))
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			fill := byte('A' + id)
			for i := 0; i < writerIters; i++ {
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(4) == 0 {
					if err := do(c, BatchOp{Code: BatchDelete, Key: k}).Err; err != nil && !errors.Is(err, ErrNotFound) {
						fail <- fmt.Sprintf("delete: %v", err)
						return
					}
					continue
				}
				val := append(append([]byte{}, k...), '|')
				for j := 0; j < 8+rng.Intn(60); j++ {
					val = append(val, fill)
				}
				if err := c.Set(k, val, uint32(id), 0); err != nil {
					fail <- fmt.Sprintf("set: %v", err)
					return
				}
			}
		}(w)
	}

	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	st := s.Stats()
	t.Logf("gets=%d hits=%d misses=%d fastpath=%d retries=%d grave=%d",
		st.Gets, st.GetHits, st.GetMisses, st.GetFastpathHits, st.SeqlockRetries, s.GraveLen())
	if st.GetFastpathHits == 0 {
		t.Fatal("no Get took the optimistic fast path")
	}
	if st.SeqlockRetries == 0 {
		t.Fatal("injected retries were not counted")
	}
	// Drain the quarantine and make sure the store still round-trips.
	c := s.NewCtx(999)
	defer c.Close()
	c.reapGrave()
	if err := c.Set([]byte("final"), []byte("final|X"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if v, _, _, err := c.Get([]byte("final")); err != nil || string(v) != "final|X" {
		t.Fatalf("post-stress get = %q, %v", v, err)
	}
}

// TestOptimisticFastpathCounting pins down when Get takes the lock-free
// path: fresh items are served optimistically, a due LRU bump or a lazy
// expiry forces the locked path, and the ablation toggle disables the fast
// path entirely.
func TestOptimisticFastpathCounting(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16, FixedSize: true})
	now := int64(1000)
	s.SetClock(func() int64 { return now })

	fastpath := func() uint64 { return s.Stats().GetFastpathHits }

	k := []byte("k")
	if err := c.Set(k, []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Get(k); err != nil {
		t.Fatal(err)
	}
	if fastpath() != 1 {
		t.Fatalf("fresh Get fastpath hits = %d, want 1", fastpath())
	}

	// Past the bump interval the read owes an LRU bump — a write — so it
	// must fall back to the locked path (which performs the bump).
	now += lruBumpInterval + 1
	if _, _, _, err := c.Get(k); err != nil {
		t.Fatal(err)
	}
	if fastpath() != 1 {
		t.Fatalf("bump-due Get took the fast path (hits = %d)", fastpath())
	}
	// The bump reset lastAccess, so the next read is optimistic again.
	if _, _, _, err := c.Get(k); err != nil {
		t.Fatal(err)
	}
	if fastpath() != 2 {
		t.Fatalf("post-bump Get fastpath hits = %d, want 2", fastpath())
	}

	// An expired item needs a lazy unlink: locked path, then a miss. The
	// miss itself is served optimistically next time (validated miss).
	if err := c.Set([]byte("exp"), []byte("v"), 0, 60); err != nil {
		t.Fatal(err)
	}
	now += 120
	if _, _, _, err := c.Get([]byte("exp")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired get = %v", err)
	}
	if fastpath() != 2 {
		t.Fatalf("expired Get took the fast path (hits = %d)", fastpath())
	}
	if _, _, _, err := c.Get([]byte("exp")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-expiry get = %v", err)
	}
	if fastpath() != 3 {
		t.Fatalf("validated miss fastpath hits = %d, want 3", fastpath())
	}

	// Refresh k's lastAccess (this read is bump-due, hence locked) so the
	// next lookup is eligible for the fast path again.
	if _, _, _, err := c.Get(k); err != nil {
		t.Fatal(err)
	}
	if fastpath() != 3 {
		t.Fatalf("bump-due Get took the fast path (hits = %d)", fastpath())
	}

	// Injected validation failures burn every attempt, fall back, and are
	// counted; the result is still correct.
	c.forceSeqRetries = optMaxAttempts
	before := s.Stats().SeqlockRetries
	if v, _, _, err := c.Get(k); err != nil || string(v) != "v" {
		t.Fatalf("forced-retry get = %q, %v", v, err)
	}
	if fastpath() != 3 {
		t.Fatal("exhausted retries must fall back to the locked path")
	}
	if got := s.Stats().SeqlockRetries; got < before+uint64(optMaxAttempts) {
		t.Fatalf("SeqlockRetries = %d, want ≥ %d", got, before+uint64(optMaxAttempts))
	}
	c.forceSeqRetries = 0

	// A context without a reader slot never takes the fast path.
	c.releaseReaderSlot()
	if _, _, _, err := c.Get(k); err != nil {
		t.Fatal(err)
	}
	if fastpath() != 3 {
		t.Fatal("a slotless context took the fast path")
	}
}

// TestGraveQuarantine verifies safe reclamation: removed items sit intact
// in the quarantine — still well-formed items, their key and value bytes
// where a late reader would look — until a reap drains them.
func TestGraveQuarantine(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16, FixedSize: true})
	k := []byte("doomed")
	if err := c.Set(k, []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	hash := ring.Hash(k)
	s.H.LockAcquire(s.itemLockOff(hash), c.owner)
	it := c.findLocked(k, hash)
	s.H.LockRelease(s.itemLockOff(hash))
	if it == 0 {
		t.Fatal("item not found")
	}

	if err := do(c, BatchOp{Code: BatchDelete, Key: k}).Err; err != nil {
		t.Fatal(err)
	}
	if got := s.GraveLen(); got != 1 {
		t.Fatalf("GraveLen after delete = %d, want 1", got)
	}
	// Quarantined: refcount zero, memory intact.
	if s.H.AtomicLoad64(it+itRefcount) != 0 {
		t.Fatal("quarantined item has nonzero refcount")
	}
	if !s.itemCheckValid(it) || !s.keyEqual(it, k) || string(s.H.Bytes(s.itemValOff(it), 1)) != "v" {
		t.Fatal("quarantined item's bytes changed before the reap")
	}
	if freed := c.reapGrave(); freed != 1 {
		t.Fatalf("reapGrave freed %d, want 1", freed)
	}
	if got := s.GraveLen(); got != 0 {
		t.Fatalf("GraveLen after reap = %d, want 0", got)
	}
	// A second reap is a no-op.
	if freed := c.reapGrave(); freed != 0 {
		t.Fatalf("second reapGrave freed %d", freed)
	}
}

// TestGraveAutoReap checks that pushing past the threshold reaps without
// any maintenance pass.
func TestGraveAutoReap(t *testing.T) {
	s, c := newStore(t, 1<<24, Options{HashPower: 10, NumItemLocks: 16, FixedSize: true})
	for i := 0; i < int(graveReapThreshold)+10; i++ {
		k := []byte(fmt.Sprintf("k-%04d", i))
		if err := c.Set(k, []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := do(c, BatchOp{Code: BatchDelete, Key: k}).Err; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.GraveLen(); got >= graveReapThreshold {
		t.Fatalf("GraveLen = %d, auto-reap never ran", got)
	}
}

// TestUnpinnedReadsUnderReapChurn: optimistic readers take no reference on
// the item they copy, so the read section alone must keep its bytes in
// place. Writers delete and re-set a small key range with the grave reaping
// on every push — each dead item is freed, and its memory reused, as soon
// as the reaper has waited out the sections that might still see it — and
// every value a reader returns must be one a writer stored under that key:
// the key, a version, and a length and filler both derived from the
// version. A copy from freed or recycled memory that slipped past the
// seqlock would break one of the three. Run with -race.
func TestUnpinnedReadsUnderReapChurn(t *testing.T) {
	defer func(n uint64) { graveReapThreshold = n }(graveReapThreshold)
	graveReapThreshold = 1
	s, _ := newStore(t, 1<<22, Options{HashPower: 6, NumItemLocks: 8, FixedSize: true})
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("churn-%02d", i))
	}
	value := func(k []byte, ver uint64) []byte {
		v := append(append([]byte{}, k...), fmt.Sprintf("|%08d|", ver)...)
		for j := uint64(0); j < 8+ver%97; j++ {
			v = append(v, byte('a'+ver%26))
		}
		return v
	}
	check := func(k, v []byte) string {
		var ver uint64
		if len(v) < len(k)+10 || !bytes.Equal(v[:len(k)], k) {
			return fmt.Sprintf("value %q does not carry key %q", v, k)
		}
		if _, err := fmt.Sscanf(string(v[len(k):len(k)+10]), "|%08d|", &ver); err != nil {
			return fmt.Sprintf("value %q for key %q has no version", v, k)
		}
		if want := value(k, ver); !bytes.Equal(v, want) {
			return fmt.Sprintf("value %q for key %q, want %q", v, k, want)
		}
		return ""
	}

	const writers, readers, iters = 2, 2, 3000
	fail := make(chan string, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.NewCtx(uint64(100 + id))
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < iters; i++ {
				k := keys[rng.Intn(len(keys))]
				if err := do(c, BatchOp{Code: BatchDelete, Key: k}).Err; err != nil && !errors.Is(err, ErrNotFound) {
					fail <- fmt.Sprintf("delete: %v", err)
					return
				}
				if err := c.Set(k, value(k, uint64(i*writers+id)), 0, 0); err != nil {
					fail <- fmt.Sprintf("set: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.NewCtx(uint64(200 + id))
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			for i := 0; i < iters; i++ {
				k := keys[rng.Intn(len(keys))]
				v, _, _, err := c.Get(k)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					fail <- fmt.Sprintf("get: %v", err)
					return
				}
				if msg := check(k, v); msg != "" {
					fail <- msg
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if st := s.Stats(); st.GetFastpathHits == 0 || st.GetHits == 0 {
		t.Fatalf("no optimistic hit to check: %+v", st)
	}
	if _, err := s.A.Check(); err != nil {
		t.Fatalf("heap verification after churn: %v", err)
	}
}

// TestReaderSlotExhaustion: contexts beyond the slot supply still work,
// just without the fast path; closing a context recycles its slot.
func TestReaderSlotExhaustion(t *testing.T) {
	s, c1 := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16, ReaderSlots: 1, FixedSize: true})
	if c1.rdSlot == 0 {
		t.Fatal("first context got no reader slot")
	}
	c2 := s.NewCtx(2)
	if c2.rdSlot != 0 {
		t.Fatal("second context claimed a slot that should be taken")
	}
	// Slotless contexts serve reads through the locked path, correctly.
	if err := c2.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().GetFastpathHits
	if v, _, _, err := c2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("slotless get = %q, %v", v, err)
	}
	if got := s.Stats().GetFastpathHits; got != before {
		t.Fatal("slotless context took the fast path")
	}
	c2.Close()
	c1.Close() // releases the one slot
	c3 := s.NewCtx(3)
	defer c3.Close()
	if c3.rdSlot == 0 {
		t.Fatal("slot was not recycled after Close")
	}
}

// TestGetAndTouchAppend covers get-and-touch into a lent buffer: the value
// lands in the caller's buffer and the expiry really moves.
func TestGetAndTouchAppend(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16, FixedSize: true})
	now := int64(1000)
	s.SetClock(func() int64 { return now })
	if err := c.Set([]byte("k"), []byte("value"), 0, 50); err != nil {
		t.Fatal(err)
	}
	dst := append(make([]byte, 0, 64), "prefix:"...)
	res := make([]BatchResult, 1)
	out := c.ExecBatch([]BatchOp{{Code: BatchGAT, Key: []byte("k"), Exptime: 500}}, res, dst)
	if err := res[0].Err; err != nil {
		t.Fatal(err)
	}
	if string(out) != "prefix:value" || string(res[0].Value) != "value" || res[0].CAS == 0 {
		t.Fatalf("get-and-touch = %q (value %q) cas=%d", out, res[0].Value, res[0].CAS)
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("append did not reuse the caller's buffer")
	}
	// Past the original expiry but inside the touched one.
	now += 100
	if _, _, _, err := c.Get([]byte("k")); err != nil {
		t.Fatalf("touched item expired early: %v", err)
	}
	now += 500
	if _, _, _, err := c.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("item outlived touched expiry: %v", err)
	}
}

// BenchmarkAblationSeqlockRead: the locked read path vs the lock-free
// optimistic (seqlock) read path, on the 95/5 read-mostly mix the paper's
// headline figures use. The per-bucket spinlock is the residual
// synchronization left on Get once domain crossings are cheap; the seqlock
// path removes it. The locked arm's contexts hold no reader slot, the
// configuration a store runs when its contexts outnumber ReaderSlots, so
// they also count every operation in the store-wide gate word.
func BenchmarkAblationSeqlockRead(b *testing.B) {
	for _, optimistic := range []bool{false, true} {
		name := "locked"
		if optimistic {
			name = "seqlock"
		}
		b.Run(name, func(b *testing.B) {
			s, setup := newStore(b, 256<<20, Options{HashPower: 14, NumItemLocks: 1024, FixedSize: true})
			val := make([]byte, 128)
			key := make([]byte, 0, 20)
			for i := uint64(0); i < 4096; i++ {
				key = ycsb.KeyInto(key, i)
				if err := setup.Set(key, val, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
			setup.Close()
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := seq.Add(1)
				c := s.NewCtx(id * 31)
				defer c.Close()
				if !optimistic {
					c.releaseReaderSlot()
				}
				k := make([]byte, 0, 20)
				v := make([]byte, 128)
				var buf []byte
				i := id * 2654435761
				for pb.Next() {
					k = ycsb.KeyInto(k, i%4096)
					if i%20 == 19 {
						if err := c.Set(k, v, 0, 0); err != nil {
							b.Error(err)
							return
						}
					} else {
						buf, _, _, _ = c.GetAppend(buf[:0], k)
					}
					i++
				}
			})
			st := s.Stats()
			if st.Gets > 0 {
				b.ReportMetric(float64(st.GetFastpathHits)/float64(st.Gets), "fastpath/get")
			}
			b.ReportMetric(float64(st.SeqlockRetries), "seq-retries")
		})
	}
}
