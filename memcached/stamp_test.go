package memcached

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/mono"
	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
)

// stampSessions opens a gated and a direct session on one store.
func stampSessions(t *testing.T, cfg Config) (b *Bookkeeper, gated, direct *Session) {
	t.Helper()
	cfg.HeapBytes, cfg.HashPower, cfg.NumItemLocks = 16<<20, 10, 64
	b, err := CreateStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := b.NewClientProcess(1000)
	if err != nil {
		t.Fatal(err)
	}
	if gated, err = cp.NewSession(); err != nil {
		t.Fatal(err)
	}
	if direct, err = cp.NewSessionNoHodor(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gated.Close(); direct.Close() })
	return b, gated, direct
}

// TestStoreClockIsTheWord: with the coarse clock held still an hour in the
// past, an item whose absolute expiry is ten seconds past the word — an
// hour gone by the precise clock — is a hit on every path: a gated and a
// direct session, single ops, ExecBatch, MGet, and a set after FlushAll,
// with every operation latency-sampled. Nothing reads the precise clock
// for expiry.
func TestStoreClockIsTheWord(t *testing.T) {
	_, gated, direct := stampSessions(t, Config{LatencySampleEvery: 1})
	resume := mono.Still()
	defer resume()
	word := mono.Now() - int64(time.Hour)
	mono.Publish(word)
	exp := mono.Unix(word) + 10 // past the 30-day cutoff: absolute
	v := []byte("v")
	for _, s := range []*Session{gated, direct} {
		k, kb := []byte("k"), []byte("kb")
		if err := s.Set(k, v, 0, exp); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get(k); err != nil {
			t.Fatalf("direct=%v: Get of an item with 10s to live: %v", s.direct, err)
		}
		res, err := s.ExecBatch([]BatchOp{
			{Code: BatchSet, Key: kb, Value: v, Exptime: exp}, {Code: BatchGet, Key: kb}, {Code: BatchTouch, Key: k, Exptime: exp},
		})
		if err != nil || res[1].Err != nil || res[2].Err != nil {
			t.Fatalf("direct=%v: ExecBatch = %+v, %v; want the set item hit and touched", s.direct, res, err)
		}
		got, err := s.MGet([][]byte{k, kb})
		if err != nil || !got[0].Found || !got[1].Found {
			t.Fatalf("direct=%v: MGet = %+v, %v; want both hit", s.direct, got, err)
		}
		if err := s.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := s.Set(k, v, 0, exp); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Get(k); err != nil {
			t.Fatalf("direct=%v: Get after FlushAll and a set with 10s to live: %v", s.direct, err)
		}
	}
}

// TestInjectedClockOverridesTheWord: Store.SetClock wins over the coarse
// clock, so an item expires on the call after the injected clock is
// stepped — each admission reads it afresh, once.
func TestInjectedClockOverridesTheWord(t *testing.T) {
	b, gated, direct := stampSessions(t, Config{})
	now := int64(1_000_000)
	reads := 0
	b.Store().SetClock(func() int64 { reads++; return now })
	k := []byte("k")
	if err := gated.Set(k, []byte("v"), 0, 10); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{gated, direct} {
		if _, _, err := s.Get(k); err != nil {
			t.Fatalf("direct=%v: before the step: %v", s.direct, err)
		}
	}
	now += 10
	for _, s := range []*Session{gated, direct} {
		if _, _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("direct=%v: the call after the step = %v, want expired", s.direct, err)
		}
	}
	// One read of it per admission, a batch being one admission.
	reads = 0
	ops := make([]BatchOp, 64)
	for i := range ops {
		ops[i] = BatchOp{Code: BatchSet, Key: []byte{'b', byte(i)}, Value: []byte("v"), Exptime: 5}
	}
	if _, err := gated.ExecBatch(ops); err != nil {
		t.Fatal(err)
	}
	if reads != 1 {
		t.Fatalf("a 64-op batch read the injected clock %d times, want once", reads)
	}
}

// TestGatedAndDirectAgreeOnExpiry: with no injected clock, a gated session
// and a direct one tell the same time, both from the coarse clock. An item with one second to live is visible to both
// until the unix second turns and to neither after; a later call never sees
// what an earlier one saw expire.
func TestGatedAndDirectAgreeOnExpiry(t *testing.T) {
	_, gated, direct := stampSessions(t, Config{})
	k := []byte("k")
	set := time.Now().Unix()
	if err := gated.Set(k, []byte("v"), 0, 1); err != nil {
		t.Fatal(err)
	}
	setEnd := time.Now().Unix()
	expired := false
	for deadline := time.Now().Add(3 * time.Second); ; {
		confirmed := expired // one more round after the first miss: both must now miss
		for _, s := range []*Session{gated, direct} {
			before := time.Now().Unix()
			_, _, err := s.Get(k)
			after := time.Now().Unix()
			switch {
			case err == nil && expired:
				t.Fatalf("direct=%v: hit after the other session saw the item expire", s.direct)
			case err == nil && before > setEnd+2: // a second of slack: the wall clock may be slewed, the store's is not
				t.Fatalf("direct=%v: hit at unix %d, set at %d..%d with 1s to live", s.direct, before, set, setEnd)
			case errors.Is(err, ErrNotFound) && after < set:
				t.Fatalf("direct=%v: expired at unix %d, set at %d with 1s to live", s.direct, after, set)
			case errors.Is(err, ErrNotFound):
				expired = true
			case err != nil:
				t.Fatal(err)
			}
		}
		if confirmed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("item with 1s to live never expired")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCheckpointImageKeepsGetTotals: the Get totals are derived on read, so
// an offline reader of a checkpoint image (plibdump: shm.Load, ralloc.Open,
// core.Attach, Stats) must derive what the live store reports — hits,
// misses, their sum, and the fast-path share.
func TestCheckpointImageKeepsGetTotals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.img")
	b, err := CreateStore(Config{HeapBytes: 16 << 20, Path: path, HashPower: 10, NumItemLocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	s := newTestSession(t, b)
	k := []byte("k")
	if err := s.Set(k, []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		s.Get(k)                //nolint:errcheck
		s.Get([]byte("absent")) //nolint:errcheck
		s.GetAndTouch(k, 0)     //nolint:errcheck
		s.MGet([][]byte{k, k})  //nolint:errcheck
	}
	live := b.Store().Stats()
	if live.Gets != 35 || live.GetHits != 28 || live.GetMisses != 7 || live.GetFastpathHits != 28 {
		t.Fatalf("live store: %d gets = %d hits + %d misses, %d on the fast path; want 35 = 28 + 7, 28",
			live.Gets, live.GetHits, live.GetMisses, live.GetFastpathHits)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	heap, err := shm.Load(shm.CheckpointSlot(path, b.CheckpointGeneration()))
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := ralloc.Open(heap)
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.Attach(alloc)
	if err != nil {
		t.Fatal(err)
	}
	img := store.Stats()
	if img.Gets != live.Gets || img.GetHits != live.GetHits || img.GetMisses != live.GetMisses || img.GetFastpathHits != live.GetFastpathHits {
		t.Fatalf("image: %d gets (%d hits, %d misses, %d fast); live: %d (%d, %d, %d)",
			img.Gets, img.GetHits, img.GetMisses, img.GetFastpathHits, live.Gets, live.GetHits, live.GetMisses, live.GetFastpathHits)
	}
}
