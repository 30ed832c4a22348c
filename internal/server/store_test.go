package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"plibmc/internal/protocol"
)

func newTestStore() *Store {
	return NewStore(16<<20, 10)
}

func TestBaselineSetGetDelete(t *testing.T) {
	s := newTestStore()
	if st := s.Set([]byte("k"), []byte("v"), 5, 0); st != protocol.StatusOK {
		t.Fatalf("set = %v", st)
	}
	v, flags, cas, ok := s.Get([]byte("k"))
	if !ok || string(v) != "v" || flags != 5 || cas == 0 {
		t.Fatalf("get = %q %d %d %v", v, flags, cas, ok)
	}
	if _, _, _, ok := s.Get([]byte("nope")); ok {
		t.Fatal("phantom hit")
	}
	if st := s.Delete([]byte("k")); st != protocol.StatusOK {
		t.Fatalf("delete = %v", st)
	}
	if st := s.Delete([]byte("k")); st != protocol.StatusKeyNotFound {
		t.Fatalf("re-delete = %v", st)
	}
}

func TestBaselineConditionalStores(t *testing.T) {
	s := newTestStore()
	if st := s.Replace([]byte("k"), []byte("x"), 0, 0); st != protocol.StatusKeyNotFound {
		t.Fatalf("replace missing = %v", st)
	}
	if st := s.Add([]byte("k"), []byte("v1"), 0, 0); st != protocol.StatusOK {
		t.Fatalf("add = %v", st)
	}
	if st := s.Add([]byte("k"), []byte("v2"), 0, 0); st != protocol.StatusKeyExists {
		t.Fatalf("re-add = %v", st)
	}
	_, _, cas, _ := s.Get([]byte("k"))
	if st := s.CAS([]byte("k"), []byte("v3"), 0, 0, cas+1); st != protocol.StatusKeyExists {
		t.Fatalf("stale cas = %v", st)
	}
	if st := s.CAS([]byte("k"), []byte("v3"), 0, 0, cas); st != protocol.StatusOK {
		t.Fatalf("cas = %v", st)
	}
	if st := s.Append([]byte("k"), []byte("+")); st != protocol.StatusOK {
		t.Fatalf("append = %v", st)
	}
	if st := s.Prepend([]byte("k"), []byte("-")); st != protocol.StatusOK {
		t.Fatalf("prepend = %v", st)
	}
	v, _, _, _ := s.Get([]byte("k"))
	if string(v) != "-v3+" {
		t.Fatalf("value = %q", v)
	}
	if st := s.Append([]byte("missing"), []byte("x")); st != protocol.StatusNotStored {
		t.Fatalf("append missing = %v", st)
	}
}

func TestBaselineIncrDecrEdges(t *testing.T) {
	s := newTestStore()
	if _, st := s.IncrDecr([]byte("n"), 1, false); st != protocol.StatusKeyNotFound {
		t.Fatalf("incr missing = %v", st)
	}
	s.Set([]byte("n"), []byte("9"), 0, 0)
	if v, st := s.IncrDecr([]byte("n"), 1, false); st != protocol.StatusOK || v != 10 {
		t.Fatalf("incr across width = %d %v", v, st)
	}
	got, _, _, _ := s.Get([]byte("n"))
	if string(got) != "10" {
		t.Fatalf("stored = %q", got)
	}
	if v, st := s.IncrDecr([]byte("n"), 100, true); st != protocol.StatusOK || v != 0 {
		t.Fatalf("saturating decr = %d %v", v, st)
	}
	s.Set([]byte("n"), []byte("xyz"), 0, 0)
	if _, st := s.IncrDecr([]byte("n"), 1, false); st != protocol.StatusNonNumeric {
		t.Fatalf("non-numeric = %v", st)
	}
	s.Set([]byte("n"), []byte("18446744073709551615"), 0, 0)
	if v, st := s.IncrDecr([]byte("n"), 1, false); st != protocol.StatusOK || v != 0 {
		t.Fatalf("wrap = %d %v", v, st)
	}
}

func TestBaselineExpiryAndTouch(t *testing.T) {
	s := newTestStore()
	now := int64(1000)
	s.SetClock(func() int64 { return now })
	s.Set([]byte("k"), []byte("v"), 0, 50)
	now += 49
	if _, _, _, ok := s.Get([]byte("k")); !ok {
		t.Fatal("alive key missed")
	}
	if st := s.Touch([]byte("k"), 500); st != protocol.StatusOK {
		t.Fatalf("touch = %v", st)
	}
	now += 400
	if _, _, _, ok := s.Get([]byte("k")); !ok {
		t.Fatal("touched key died early")
	}
	now += 200
	if _, _, _, ok := s.Get([]byte("k")); ok {
		t.Fatal("expired key served")
	}
	if st := s.Touch([]byte("k"), 10); st != protocol.StatusKeyNotFound {
		t.Fatalf("touch expired = %v", st)
	}
	snap := s.Snapshot()
	if snap.Expired == 0 {
		t.Fatal("expired counter")
	}
	// Negative expiry: dead on arrival.
	s.Set([]byte("neg"), []byte("v"), 0, -5)
	if _, _, _, ok := s.Get([]byte("neg")); ok {
		t.Fatal("negative-expiry key served")
	}
}

func TestBaselineLRUWithinEachClass(t *testing.T) {
	// Classic memcached couples eviction to the slab class: exhausting
	// one class evicts that class's LRU tail and leaves other classes
	// untouched — the calcification the paper removed.
	s := NewStore(3<<20, 10) // 3 slab pages budget
	small := bytes.Repeat([]byte{'s'}, 100)
	large := bytes.Repeat([]byte{'L'}, 8000)
	// One page of small items, one page of large; third page spare.
	if st := s.Set([]byte("small-sentinel"), small, 0, 0); st != protocol.StatusOK {
		t.Fatal(st)
	}
	if st := s.Set([]byte("large-sentinel"), large, 0, 0); st != protocol.StatusOK {
		t.Fatal(st)
	}
	// Now flood the large class far past its share of the budget.
	for i := 0; i < 2000; i++ {
		if st := s.Set([]byte(fmt.Sprintf("large-%04d", i)), large, 0, 0); st != protocol.StatusOK {
			t.Fatalf("large set %d: %v", i, st)
		}
	}
	snap := s.Snapshot()
	if snap.Evictions == 0 {
		t.Fatal("large-class flood should evict")
	}
	// The large sentinel was the class's LRU tail: evicted.
	if _, _, _, ok := s.Get([]byte("large-sentinel")); ok {
		t.Fatal("large sentinel survived its class's pressure")
	}
	// The small class was never under pressure: its sentinel survives.
	if _, _, _, ok := s.Get([]byte("small-sentinel")); !ok {
		t.Fatal("small-class item evicted by large-class pressure (classes should be independent)")
	}
}

func TestBaselineFlushAllAndStats(t *testing.T) {
	s := newTestStore()
	for i := 0; i < 50; i++ {
		s.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v"), 0, 0)
	}
	if snap := s.Snapshot(); snap.CurrItems != 50 || snap.Bytes == 0 {
		t.Fatalf("pre-flush stats: %+v", snap)
	}
	s.FlushAll()
	snap := s.Snapshot()
	if snap.CurrItems != 0 || snap.Bytes != 0 {
		t.Fatalf("post-flush stats: %+v", snap)
	}
}

func TestBaselineConcurrent(t *testing.T) {
	s := newTestStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := []byte(fmt.Sprintf("key-%d", (g*31+i)%200))
				switch i % 3 {
				case 0:
					if st := s.Set(k, []byte(fmt.Sprintf("v%d", i)), 0, 0); st != protocol.StatusOK {
						t.Errorf("set: %v", st)
						return
					}
				case 1:
					s.Get(k)
				case 2:
					s.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Set([]byte("after"), []byte("ok"), 0, 0); st != protocol.StatusOK {
		t.Fatal("store broken after stress")
	}
}

func TestBaselineKeyTooLong(t *testing.T) {
	s := newTestStore()
	long := bytes.Repeat([]byte{'k'}, protocol.MaxKeyLen+1)
	if st := s.Set(long, []byte("v"), 0, 0); st != protocol.StatusInvalidArgs {
		t.Fatalf("long key = %v", st)
	}
}

// TestGetBumpsClassLRU is the regression test for FIFO eviction: Get must
// move the accessed item to the head of its class LRU so the eviction
// tail is the least-recently-*used* item, not the least-recently-stored.
func TestGetBumpsClassLRU(t *testing.T) {
	s := NewStore(1<<20, 10) // one slab page: the large class holds few items
	large := bytes.Repeat([]byte{'x'}, 8000)
	if st := s.Set([]byte("protected"), large, 0, 0); st != protocol.StatusOK {
		t.Fatal(st)
	}
	if st := s.Set([]byte("victim"), large, 0, 0); st != protocol.StatusOK {
		t.Fatal(st)
	}
	// Access the older item: it must become most recently used.
	if _, _, _, ok := s.Get([]byte("protected")); !ok {
		t.Fatal("miss on live key")
	}
	// Flood the class until the first eviction. The tail it evicts must be
	// the unaccessed "victim"; pre-fix the list kept pure insertion order,
	// so the accessed-but-older "protected" was the tail and died here.
	for i := 0; s.Snapshot().Evictions == 0; i++ {
		if i > 1000 {
			t.Fatal("no eviction after 1000 sets")
		}
		if st := s.Set([]byte(fmt.Sprintf("fill-%04d", i)), large, 0, 0); st != protocol.StatusOK {
			t.Fatalf("fill set: %v", st)
		}
	}
	if _, _, _, ok := s.Get([]byte("victim")); ok {
		t.Fatal("victim survived: eviction tail was not the least recently used item")
	}
	if _, _, _, ok := s.Get([]byte("protected")); !ok {
		t.Fatal("accessed item evicted: Get did not bump the class LRU")
	}
}

// TestGATBumpsClassLRU: GetAndTouch is a retrieval and must bump too.
func TestGATBumpsClassLRU(t *testing.T) {
	s := NewStore(1<<20, 10)
	large := bytes.Repeat([]byte{'x'}, 8000)
	s.Set([]byte("protected"), large, 0, 0)
	s.Set([]byte("victim"), large, 0, 0)
	if _, _, _, ok := s.GetAndTouch([]byte("protected"), 0); !ok {
		t.Fatal("miss on live key")
	}
	for i := 0; s.Snapshot().Evictions == 0; i++ {
		if i > 1000 {
			t.Fatal("no eviction after 1000 sets")
		}
		if st := s.Set([]byte(fmt.Sprintf("fill-%04d", i)), large, 0, 0); st != protocol.StatusOK {
			t.Fatalf("fill set: %v", st)
		}
	}
	if _, _, _, ok := s.GetAndTouch([]byte("protected"), 0); !ok {
		t.Fatal("accessed item evicted: GetAndTouch did not bump the class LRU")
	}
}

// TestDeleteExpiredIsNotFound: deleting an expired-but-unreaped item must
// report NOT_FOUND (the item is logically gone) and count an expiry, not
// a successful delete.
func TestDeleteExpiredIsNotFound(t *testing.T) {
	s := newTestStore()
	now := int64(1000)
	s.SetClock(func() int64 { return now })
	s.Set([]byte("k"), []byte("v"), 0, 50)
	now += 100
	if st := s.Delete([]byte("k")); st != protocol.StatusKeyNotFound {
		t.Fatalf("delete of expired item = %v, want KeyNotFound", st)
	}
	snap := s.Snapshot()
	if snap.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", snap.Expired)
	}
	if snap.CurrItems != 0 {
		t.Fatalf("CurrItems = %d, want 0 (expired item must be reaped)", snap.CurrItems)
	}
}

// TestTouchAndGATCounters: GetAndTouch is a get (and a touch); Touch is a
// touch. Both used to update no counters at all.
func TestTouchAndGATCounters(t *testing.T) {
	s := newTestStore()
	s.Set([]byte("k"), []byte("v"), 0, 0)
	if _, _, _, ok := s.GetAndTouch([]byte("k"), 100); !ok {
		t.Fatal("gat hit missed")
	}
	if _, _, _, ok := s.GetAndTouch([]byte("gone"), 100); ok {
		t.Fatal("gat phantom hit")
	}
	if st := s.Touch([]byte("k"), 100); st != protocol.StatusOK {
		t.Fatalf("touch = %v", st)
	}
	if st := s.Touch([]byte("gone"), 100); st != protocol.StatusKeyNotFound {
		t.Fatalf("touch miss = %v", st)
	}
	snap := s.Snapshot()
	if snap.Gets != 2 || snap.GetHits != 1 || snap.GetMisses != 1 {
		t.Fatalf("get counters = %d/%d/%d, want 2/1/1", snap.Gets, snap.GetHits, snap.GetMisses)
	}
	if snap.Touches != 4 || snap.TouchHits != 2 || snap.TouchMisses != 2 {
		t.Fatalf("touch counters = %d/%d/%d, want 4/2/2", snap.Touches, snap.TouchHits, snap.TouchMisses)
	}
}

// runOrHang fails the test if f has not returned within 30 s: the failure
// mode under test is a Set that blocks forever on an item lock.
func runOrHang(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("store operation never returned: eviction deadlocked on an item lock")
	}
}

// TestBaselineEvictionUnderItemLock floods a 2 MiB store far past its
// capacity. Set evicts while holding its key's item lock, so sooner or
// later a victim hashes to the held stripe (one goroutine used to
// self-deadlock there) or to a stripe another evicting setter holds (two
// used to deadlock AB/BA).
func TestBaselineEvictionUnderItemLock(t *testing.T) {
	val := bytes.Repeat([]byte{'v'}, 1000)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("goroutines=%d", workers), func(t *testing.T) {
			s := NewStore(2<<20, 10)
			runOrHang(t, func() {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < 24000/workers; i++ {
							// 3000 keys shared by all workers, over a store
							// that holds about 1900 of them.
							key := []byte(fmt.Sprintf("flood-%04d", (i*workers+w)%3000))
							st := s.Set(key, val, 0, 0)
							// A lone setter can always lock its victim; racing
							// setters may find every candidate busy.
							if st != protocol.StatusOK && (workers == 1 || st != protocol.StatusOutOfMemory) {
								t.Errorf("set %s = %v", key, st)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			})
			if s.Snapshot().Evictions == 0 {
				t.Fatal("flood past capacity evicted nothing")
			}
		})
	}
}

// TestBaselineSetReplacesItsOwnVictim overwrites the key whose old item
// is the eviction tail of a full store: the eviction inside that Set
// frees the item Set was about to unlink.
func TestBaselineSetReplacesItsOwnVictim(t *testing.T) {
	s := NewStore(2<<20, 10)
	val := bytes.Repeat([]byte{'v'}, 1000)
	key := func(i int) []byte { return []byte(fmt.Sprintf("fill-%04d", i)) }
	runOrHang(t, func() {
		// Fill until the first eviction: that evicted key 0, the store is
		// full, and key 1 is now the tail.
		for i := 0; s.Snapshot().Evictions == 0; i++ {
			if st := s.Set(key(i), val, 0, 0); st != protocol.StatusOK {
				t.Errorf("fill set %d = %v", i, st)
				return
			}
		}
		// Same size, so the replacement allocates from the full class.
		newVal := bytes.Repeat([]byte{'w'}, 1000)
		before := s.Snapshot()
		if st := s.Set(key(1), newVal, 0, 0); st != protocol.StatusOK {
			t.Errorf("replace of the tail = %v", st)
			return
		}
		after := s.Snapshot()
		if after.Evictions != before.Evictions+1 || after.CurrItems != before.CurrItems {
			t.Errorf("replace of the tail: evictions %d -> %d, items %d -> %d; want one eviction, same item count",
				before.Evictions, after.Evictions, before.CurrItems, after.CurrItems)
		}
		if v, _, _, ok := s.Get(key(1)); !ok || !bytes.Equal(v, newVal) {
			t.Errorf("get after replace: hit=%v, new value=%v", ok, bytes.Equal(v, newVal))
		}
	})
}
