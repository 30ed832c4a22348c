package core

import (
	"errors"
	"testing"
	"time"

	"plibmc/internal/mono"
)

// TestGetCountsTheException (ISSUE 26): Gets and GetFastpathHits are no
// longer counted, they are derived — Gets = GetHits + GetMisses, fast path
// = Gets minus the Gets that took the bucket lock. Over a scripted mix of
// every way a Get can end, single and batched, the derived values must
// equal the hand counts the two retired counters would have held.
func TestGetCountsTheException(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	now := int64(1_000_000)
	s.SetClock(func() int64 { return now })
	var hits, misses, locked, expired uint64
	check := func(when string) {
		t.Helper()
		st := s.Stats()
		if st.GetHits != hits || st.GetMisses != misses || st.Gets != hits+misses {
			t.Fatalf("%s: gets %d = hits %d + misses %d; want hits %d, misses %d", when, st.Gets, st.GetHits, st.GetMisses, hits, misses)
		}
		if st.GetFastpathHits+locked != st.Gets {
			t.Fatalf("%s: fast path %d + %d locked != %d gets", when, st.GetFastpathHits, locked, st.Gets)
		}
		if st.Expired != expired {
			t.Fatalf("%s: expired %d, want %d", when, st.Expired, expired)
		}
	}
	get := func(k string, want error) {
		t.Helper()
		if _, _, _, err := c.Get([]byte(k)); !errors.Is(err, want) {
			t.Fatalf("get %q = %v, want %v", k, err, want)
		}
	}
	set := func(k string, exptime int64) {
		t.Helper()
		if err := c.Set([]byte(k), []byte("value"), 0, exptime); err != nil {
			t.Fatal(err)
		}
	}
	set("a", 0)
	set("b", 0)
	set("ttl", 10)

	// The optimistic path: validated hits and validated misses.
	for i := 0; i < 5; i++ {
		get("a", nil)
		get("absent", ErrNotFound)
	}
	hits, misses = 5, 5
	check("optimistic")

	// A key the API refuses is no Get at all.
	if _, _, _, err := c.Get(make([]byte, MaxKeyLen+1)); !errors.Is(err, ErrKeyTooLong) {
		t.Fatal(err)
	}
	check("refused key")

	// Validation that keeps failing falls back to the lock: a hit, a miss.
	c.forceSeqRetries = optMaxAttempts
	get("a", nil)
	get("absent", ErrNotFound)
	c.forceSeqRetries = 0
	hits, misses, locked = hits+1, misses+1, locked+2
	check("seqlock fallback")

	// One failed validation is retried, and still served without the lock.
	c.forceSeqRetries = 1
	get("b", nil)
	c.forceSeqRetries = 0
	hits++
	check("seqlock retry")

	// Get-and-touch is a write: always locked.
	if err := do(c, BatchOp{Code: BatchGAT, Key: []byte("a")}).Err; err != nil {
		t.Fatal(err)
	}
	if err := do(c, BatchOp{Code: BatchGAT, Key: []byte("absent")}).Err; !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	hits, misses, locked = hits+1, misses+1, locked+2
	check("get-and-touch")

	// An expired item: the probe sees it, the lock unlinks it, a miss.
	now += 10
	get("ttl", ErrNotFound)
	misses, locked, expired = misses+1, locked+1, expired+1
	check("expiry fallback")
	get("ttl", ErrNotFound) // gone now: an optimistic miss
	misses++
	check("after expiry")

	// An LRU bump falls due: the bump is a write, so the hit is locked once.
	now += lruBumpInterval
	get("a", nil)
	hits, locked = hits+1, locked+1
	check("bump-due fallback")
	get("a", nil)
	hits++
	check("after bump")

	// A context with no reader slot reads under the lock.
	c.releaseReaderSlot()
	get("b", nil) // its bump fell due too, but this one never probes
	c.claimReaderSlot()
	hits, locked = hits+1, locked+1
	check("slotless")

	// A batch defers its counts and publishes them once; same arithmetic.
	ops := []BatchOp{
		{Code: BatchGet, Key: []byte("a")}, {Code: BatchGet, Key: []byte("absent")},
		{Code: BatchGAT, Key: []byte("b")}, {Code: BatchSet, Key: []byte("n"), Value: []byte("v")},
		{Code: BatchGet, Key: []byte("n")}, {Code: BatchExport, Key: []byte("a")},
	}
	res := make([]BatchResult, len(ops))
	c.ExecBatch(ops, res, nil)
	hits, misses, locked = hits+3, misses+1, locked+1 // an export is a migration read, not a Get
	check("batch")
	batches := s.Stats().Batches
	c.MGet([][]byte{[]byte("a"), []byte("absent")})
	hits, misses = hits+1, misses+1
	check("mget")
	if st := s.Stats(); st.Batches != batches+1 || st.BatchedOps < 2 {
		t.Fatalf("an MGet is one batch: batches %d → %d, batched ops %d", batches, st.Batches, st.BatchedOps)
	}
}

// TestStatsFromOlderImage: a heap image written before ISSUE 26 counted
// Gets and optimistic Gets in words of their own. They are read-only bases
// now: the image's hits and misses already make up its Gets, and the locked
// Gets it recorded — the difference of the two words — still come off the
// fast-path figure, so nothing an older store counted reads differently.
func TestStatsFromOlderImage(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	word := func(slot uint64, ctr int) uint64 { return s.stats + slot*statSlotSize + uint64(ctr)*8 }
	// What the older store counted, over two slots: 100 gets = 70 hits +
	// 30 misses, 88 of them on the fast path.
	s.H.Store64(word(0, statGetsBase), 60)
	s.H.Store64(word(1, statGetsBase), 40)
	s.H.Store64(word(0, statGetFastpathBase), 50)
	s.H.Store64(word(1, statGetFastpathBase), 38)
	s.H.Store64(word(0, statGetHits), 70)
	s.H.Store64(word(1, statGetMisses), 30)
	if st := s.Stats(); st.Gets != 100 || st.GetFastpathHits != 88 {
		t.Fatalf("reopened: gets %d, fast path %d; want 100, 88", st.Gets, st.GetFastpathHits)
	}
	c.Set([]byte("k"), []byte("v"), 0, 0)
	c.Get([]byte("k"))
	do(c, BatchOp{Code: BatchGAT, Key: []byte("k")})
	if st := s.Stats(); st.Gets != 102 || st.GetFastpathHits != 89 || st.GetHits != 72 {
		t.Fatalf("after two more: gets %d (%d hits), fast path %d; want 102 (72), 89", st.Gets, st.GetHits, st.GetFastpathHits)
	}
	var bases uint64
	for slot := uint64(0); slot < s.statSlots; slot++ {
		bases += s.H.Load64(word(slot, statGetsBase)) + s.H.Load64(word(slot, statGetFastpathBase))
	}
	if bases != 100+88 {
		t.Fatalf("the retired words sum to %d, want the 188 the image held: nothing may write them", bases)
	}
}

// TestOptimisticHitCountsOnce: the common case — an optimistic hit — lands
// exactly one add in the context's statistics slot.
func TestOptimisticHitCountsOnce(t *testing.T) {
	s, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	c.Set([]byte("k"), []byte("v"), 0, 0)
	slot := func() (w [numStatCounters]uint64) {
		for i := range w {
			w[i] = s.H.Load64(s.stats + c.slot*statSlotSize + uint64(i)*8)
		}
		return w
	}
	before := slot()
	if _, _, _, err := c.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	after := slot()
	for i := range after {
		want := before[i]
		if i == statGetHits {
			want++
		}
		if after[i] != want {
			t.Fatalf("counter %d moved %d -> %d on an optimistic hit; only GetHits may, by one", i, before[i], after[i])
		}
	}
}

// TestBatchAdoptsOneStamp: every operation of a batch tells time from the
// one read of the coarse clock its admission made — here a word three
// hours ahead, which nothing but that read could produce — and the next
// admission reads the word again.
func TestBatchAdoptsOneStamp(t *testing.T) {
	_, c := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	const n = 64
	ops := make([]BatchOp, 2*n)
	for i := 0; i < n; i++ {
		k := []byte{'k', byte(i)}
		ops[i] = BatchOp{Code: BatchSet, Key: k, Value: []byte("v"), Exptime: 10}
		ops[n+i] = BatchOp{Code: BatchExport, Key: k}
	}
	res := make([]BatchResult, len(ops))
	resume := mono.Still()
	defer resume()
	for _, ahead := range []time.Duration{3 * time.Hour, 5 * time.Hour} {
		stamp := mono.At(time.Now().Add(ahead))
		mono.Publish(stamp)
		c.ExecBatch(ops, res, nil)
		for i := n; i < 2*n; i++ {
			if res[i].Err != nil || res[i].Exptime != mono.Unix(stamp)+10 {
				t.Fatalf("%v ahead, op %d: expiry %d (%v), want %d from the word", ahead, i, res[i].Exptime, res[i].Err, mono.Unix(stamp)+10)
			}
		}
	}
}
