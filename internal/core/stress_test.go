package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
)

// TestQuickModelAgainstMap drives the store with random operation sequences
// and mirrors every operation on a plain Go map; any divergence in results
// or final contents is a bug.
func TestQuickModelAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, c := newStore(t, 1<<22, Options{HashPower: 6, NumItemLocks: 8, FixedSize: true})
		model := map[string]string{}
		keys := make([]string, 20)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%02d", i)
		}
		for op := 0; op < 400; op++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(6) {
			case 0, 1: // set
				v := fmt.Sprintf("val-%d", rng.Intn(1000))
				if err := c.Set([]byte(k), []byte(v), 0, 0); err != nil {
					return false
				}
				model[k] = v
			case 2: // get
				v, _, _, err := c.Get([]byte(k))
				want, ok := model[k]
				if ok != (err == nil) {
					return false
				}
				if ok && string(v) != want {
					return false
				}
			case 3: // delete
				err := do(c, BatchOp{Code: BatchDelete, Key: []byte(k)}).Err
				_, ok := model[k]
				if ok != (err == nil) {
					return false
				}
				delete(model, k)
			case 4: // add
				v := fmt.Sprintf("add-%d", rng.Intn(1000))
				err := do(c, BatchOp{Code: BatchAdd, Key: []byte(k), Value: []byte(v)}).Err
				if _, ok := model[k]; ok {
					if !errors.Is(err, ErrExists) {
						return false
					}
				} else {
					if err != nil {
						return false
					}
					model[k] = v
				}
			case 5: // append
				err := do(c, BatchOp{Code: BatchAppend, Key: []byte(k), Value: []byte("+")}).Err
				if cur, ok := model[k]; ok {
					if err != nil {
						return false
					}
					model[k] = cur + "+"
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			}
		}
		// Final contents must agree exactly.
		for k, want := range model {
			v, _, _, err := c.Get([]byte(k))
			if err != nil || string(v) != want {
				return false
			}
		}
		st := c.Store().Stats()
		return st.CurrItems == uint64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMixedOps hammers the store from many goroutines, each with
// its own Ctx (as client threads have), with overlapping key ranges. Run
// with -race to catch synchronization bugs.
func TestConcurrentMixedOps(t *testing.T) {
	s, _ := newStore(t, 1<<24, Options{HashPower: 10, NumItemLocks: 64, FixedSize: true})
	const workers = 8
	const iters = 3000
	var wg sync.WaitGroup
	fail := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.NewCtx(uint64(id + 1))
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < iters; i++ {
				k := []byte(fmt.Sprintf("key-%03d", rng.Intn(200)))
				switch rng.Intn(5) {
				case 0, 1:
					v := bytes.Repeat([]byte{byte(id + 65)}, 8+rng.Intn(120))
					if err := c.Set(k, v, uint32(id), 0); err != nil {
						fail <- fmt.Sprintf("set: %v", err)
						return
					}
				case 2:
					v, flags, _, err := c.Get(k)
					if err == nil {
						// The value must be internally consistent: all
						// bytes from one writer, flags matching.
						for _, b := range v {
							if b != v[0] {
								fail <- fmt.Sprintf("torn value %q", v)
								return
							}
						}
						if len(v) > 0 && flags != uint32(v[0]-65) {
							fail <- fmt.Sprintf("flags %d for writer %c", flags, v[0])
							return
						}
					} else if !errors.Is(err, ErrNotFound) {
						fail <- fmt.Sprintf("get: %v", err)
						return
					}
				case 3:
					if err := do(c, BatchOp{Code: BatchDelete, Key: k}).Err; err != nil && !errors.Is(err, ErrNotFound) {
						fail <- fmt.Sprintf("delete: %v", err)
						return
					}
				case 4:
					nk := []byte(fmt.Sprintf("ctr-%03d", rng.Intn(20)))
					err := do(c, BatchOp{Code: BatchIncr, Key: nk, Delta: 1}).Err
					if errors.Is(err, ErrNotFound) {
						do(c, BatchOp{Code: BatchAdd, Key: nk, Value: []byte("0")})
					} else if err != nil && !errors.Is(err, ErrNotNumeric) {
						fail <- fmt.Sprintf("incr: %v", err)
						return
					}
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
	// The store must still be fully functional and self-consistent.
	c := s.NewCtx(99)
	if err := c.Set([]byte("final"), []byte("check"), 0, 0); err != nil {
		t.Fatal(err)
	}
	v, _, _, err := c.Get([]byte("final"))
	if err != nil || string(v) != "check" {
		t.Fatalf("post-stress get = %q, %v", v, err)
	}
}

// TestConcurrentResizeAndOps runs the resizer while clients operate.
func TestConcurrentResizeAndOps(t *testing.T) {
	s, _ := newStore(t, 1<<24, Options{HashPower: 6, NumItemLocks: 16})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.NewCtx(uint64(id + 1))
			defer c.Close()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("w%d-key-%d", id, i%500))
				c.Set(k, []byte("v"), 0, 0)
				c.Get(k)
				i++
			}
		}(w)
	}
	m := s.NewCtx(77)
	for p := uint(7); p <= 10; p++ {
		if err := s.ResizeTo(m, p); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// Everything inserted must still be reachable.
	c := s.NewCtx(88)
	for id := 0; id < 4; id++ {
		if _, _, _, err := c.Get([]byte(fmt.Sprintf("w%d-key-0", id))); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("post-resize get: %v", err)
		}
	}
}

// TestPersistenceRestart exercises the paper's restart path: flush on
// shutdown, reload the backing file, attach, and find every entry intact —
// "this reload and reuse adds no extra code to the system."
func TestPersistenceRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.heap")
	h := shm.New(1 << 22)
	a, _ := ralloc.Format(h)
	s, err := Create(a, Options{HashPower: 8, NumItemLocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	c := s.NewCtx(1)
	const n = 500
	for i := 0; i < n; i++ {
		if err := c.Set([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("value-%d", i)), uint32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Close() // flush thread caches, as an orderly shutdown does
	if err := h.Flush(path); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new mapping of the file.
	h2, err := shm.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ralloc.Open(h2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Attach(a2)
	if err != nil {
		t.Fatal(err)
	}
	c2 := s2.NewCtx(1)
	for i := 0; i < n; i++ {
		v, flags, _, err := c2.Get([]byte(fmt.Sprintf("key-%d", i)))
		if err != nil {
			t.Fatalf("key %d after restart: %v", i, err)
		}
		if string(v) != fmt.Sprintf("value-%d", i) || flags != uint32(i) {
			t.Fatalf("key %d after restart = %q flags=%d", i, v, flags)
		}
	}
	// And the restarted store keeps working: new writes, deletes, stats.
	if err := c2.Set([]byte("new-after-restart"), []byte("yes"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := do(c2, BatchOp{Code: BatchDelete, Key: []byte("key-0")}).Err; err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.CurrItems != n { // n - 1 deleted + 1 added
		t.Fatalf("CurrItems after restart ops = %d", st.CurrItems)
	}
}

// TestLRUOrdering verifies that eviction removes the least recently used
// items first, honouring recent gets (bump) across the bump interval.
func TestLRUOrdering(t *testing.T) {
	h := shm.New(1 << 21)
	a, _ := ralloc.Format(h)
	// One LRU list makes ordering deterministic.
	s, err := Create(a, Options{HashPower: 8, NumItemLocks: 16, NumLRUs: 1, MemLimit: 1 << 20, FixedSize: true})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1000)
	s.SetClock(func() int64 { return now })
	c := s.NewCtx(1)
	val := make([]byte, 512)
	for i := 0; i < 100; i++ {
		if err := c.Set([]byte(fmt.Sprintf("key-%02d", i)), val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key-00 much later so the LRU bump threshold passes and it
	// moves to the head of the (single) list.
	now += 120
	if _, _, _, err := c.Get([]byte("key-00")); err != nil {
		t.Fatal(err)
	}
	// Evict exactly ten items: they must be the stale tail, key-01..10,
	// never the freshly bumped key-00.
	if n := c.evictSome(10); n != 10 {
		t.Fatalf("evictSome(10) = %d", n)
	}
	if _, _, _, err := c.Get([]byte("key-00")); err != nil {
		t.Fatalf("recently used key evicted before stale ones: %v", err)
	}
	for i := 1; i <= 10; i++ {
		if _, _, _, err := c.Get([]byte(fmt.Sprintf("key-%02d", i))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("stale key-%02d should have been evicted", i)
		}
	}
	for i := 11; i < 100; i++ {
		if _, _, _, err := c.Get([]byte(fmt.Sprintf("key-%02d", i))); err != nil {
			t.Fatalf("key-%02d wrongly evicted: %v", i, err)
		}
	}
	if st := s.Stats(); st.Evictions != 10 {
		t.Fatalf("Evictions stat = %d", st.Evictions)
	}
}

// TestItemAllocRaceClean is the core-side half of ralloc's
// TestPopRaceClean: short-lived contexts Set and Delete same-class items so
// that every round refills from and flushes to one global free list, and a
// losing pop's speculative link read overlaps the winner's stores to the
// item's first header word (hNext). Those stores must be relaxed or atomic;
// under -race this test reports any that are not.
func TestItemAllocRaceClean(t *testing.T) {
	s, c0 := newStore(t, 1<<22, Options{HashPower: 8, NumItemLocks: 16})
	defer c0.Close()
	const workers, rounds = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("alloc-race-%d", w))
			for i := 0; i < rounds; i++ {
				c := s.NewCtx(uint64(w + 2))
				if err := c.Set(key, []byte("v"), 0, 0); err != nil {
					t.Error(err)
				}
				if err := do(c, BatchOp{Code: BatchDelete, Key: key}).Err; err != nil {
					t.Error(err)
				}
				c.Close()
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkCoreGet128(b *testing.B) { benchCoreGet(b, 128) }
func BenchmarkCoreGet5K(b *testing.B)  { benchCoreGet(b, 5120) }
func BenchmarkCoreSet128(b *testing.B) { benchCoreSet(b, 128) }
func BenchmarkCoreSet5K(b *testing.B)  { benchCoreSet(b, 5120) }

func benchCoreGet(b *testing.B, valSize int) {
	s, c := newStore(b, 1<<26, Options{HashPower: 14, NumItemLocks: 1024, FixedSize: true})
	_ = s
	val := bytes.Repeat([]byte{'v'}, valSize)
	const nkeys = 4096
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
		if err := c.Set(keys[i], val, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, _, _, err = c.GetAppend(buf[:0], keys[i%nkeys])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchCoreSet(b *testing.B, valSize int) {
	s, c := newStore(b, 1<<26, Options{HashPower: 14, NumItemLocks: 1024, FixedSize: true})
	_ = s
	val := bytes.Repeat([]byte{'v'}, valSize)
	const nkeys = 4096
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set(keys[i%nkeys], val, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
