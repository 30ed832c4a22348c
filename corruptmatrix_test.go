package plibmc

// The corruption matrix: for each class of single-fault damage — a flipped
// bit or torn word in live heap memory, or in an image file on disk — the
// store must either salvage (serve everything except the damaged item) or
// degrade gracefully (fail the damaged image over to the previous
// generation). Two outcomes are never acceptable: an unrecovered panic,
// and serving a value the store cannot vouch for.
//
// Every class runs sequentially against its own store: corruption
// injection uses plain stores by design (a concurrent flip would be a Go
// data race, not a model of failing hardware), so the injected store
// happens while no other thread touches the heap.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/corrupt"
	"plibmc/internal/faultpoint"
	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
	"plibmc/memcached"
)

// corruptHarness is one store under corruption test: a populated
// bookkeeper plus the expected contents.
type corruptHarness struct {
	t    *testing.T
	path string
	book *memcached.Bookkeeper
	s    *memcached.Session
	keys [][]byte
	vals [][]byte
}

const corruptKeys = 256

func newCorruptHarness(t *testing.T, withPath bool) *corruptHarness {
	t.Helper()
	h := &corruptHarness{t: t}
	if withPath {
		h.path = filepath.Join(t.TempDir(), "store.img")
	}
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes:    16 << 20,
		Path:         h.path,
		HashPower:    8,
		NumItemLocks: 16,
		CallTimeout:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = book.Shutdown() })
	h.book = book
	cp, err := book.NewClientProcess(1001)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	h.s = s
	for i := 0; i < corruptKeys; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		v := []byte(fmt.Sprintf("value-%05d-%s", i, bytes.Repeat([]byte("x"), 40)))
		if err := s.Set(k, v, 0, 0); err != nil {
			t.Fatalf("populate: %v", err)
		}
		h.keys = append(h.keys, k)
		h.vals = append(h.vals, v)
	}
	return h
}

func (h *corruptHarness) heap() *shm.Heap { return h.book.Allocator().Heap() }

// itemOff locates key i's live item, failing the test if it is missing.
func (h *corruptHarness) itemOff(i int) uint64 {
	h.t.Helper()
	it := h.s.Ctx().DebugItemOffset(h.keys[i])
	if it == 0 {
		h.t.Fatalf("key %s not found for injection", h.keys[i])
	}
	return it
}

// waitHealthy waits out any in-flight recovery and fails on poison.
func (h *corruptHarness) waitHealthy() {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.book.Library().Recovering() {
		if time.Now().After(deadline) {
			h.t.Fatal("store did not leave the Recovering state")
		}
		time.Sleep(time.Millisecond)
	}
	if h.book.Library().Poisoned() {
		h.t.Fatal("store poisoned; corruption was not contained")
	}
}

// maintain runs enough maintenance passes for the scrubber to cover every
// lock stripe at least once, tolerating recovery cycles along the way.
func (h *corruptHarness) maintain() {
	h.t.Helper()
	for i := 0; i < 6; i++ { // 16 stripes / 4 per pass, with margin
		h.book.RunMaintenanceOnce()
		h.waitHealthy()
	}
}

// sweep reads every key: a hit must return the exact original value (a
// wrong value is the one unforgivable outcome); a clean miss is tolerated
// for the damaged keys. Returns the number of misses.
func (h *corruptHarness) sweep() int {
	h.t.Helper()
	misses := 0
	for i, k := range h.keys {
		v, _, err := h.s.Get(k)
		if err != nil {
			misses++
			continue
		}
		if !bytes.Equal(v, h.vals[i]) {
			h.t.Fatalf("key %s served a corrupted value: %q", k, v)
		}
	}
	return misses
}

// verifyHeap runs the allocator fsck on the live heap.
func (h *corruptHarness) verifyHeap() {
	h.t.Helper()
	if _, err := h.book.Allocator().Check(); err != nil {
		h.t.Fatalf("heap verification after containment: %v", err)
	}
}

func TestCorruptionMatrix(t *testing.T) {
	t.Run("item_header", func(t *testing.T) {
		h := newCorruptHarness(t, false)
		const victim = 17
		it := h.itemOff(victim)
		corrupt.FlipBit(h.heap(), it+core.DebugItemCheck, 11)

		// The read path must detect the mismatch on the next probe and
		// quarantine the item: a miss, never garbage geometry.
		if _, _, err := h.s.Get(h.keys[victim]); err == nil {
			t.Fatalf("read served an item with a corrupt header")
		}
		h.waitHealthy()
		st := h.book.Stats()
		if st.CorruptionsDetected < 1 || st.ItemsQuarantined < 1 {
			t.Fatalf("counters after header corruption: detected=%d quarantined=%d",
				st.CorruptionsDetected, st.ItemsQuarantined)
		}
		if n := h.sweep(); n > 1 {
			t.Fatalf("%d keys lost to a single-item header corruption", n)
		}
		h.maintain()
		h.sweep()
		h.verifyHeap()
	})

	t.Run("value_bytes", func(t *testing.T) {
		// One flipped bit, in the ~50 B values the harness populates and at
		// either end and the middle of a 5 KB one (the ledger's write
		// workload, 640 words under one CRC-32C).
		for _, row := range []struct {
			name     string
			valBytes int // 0 keeps the harness's own value
			flipByte uint64
		}{
			{"50B", 0, 8},
			{"5K_first_byte", 5120, 0},
			{"5K_middle_byte", 5120, 2563},
			{"5K_last_byte", 5120, 5119},
		} {
			t.Run(row.name, func(t *testing.T) {
				h := newCorruptHarness(t, false)
				const victim = 42
				if row.valBytes > 0 {
					h.vals[victim] = bytes.Repeat([]byte("0123456789abcdef"), row.valBytes/16)
					if err := h.s.Set(h.keys[victim], h.vals[victim], 0, 0); err != nil {
						t.Fatal(err)
					}
				}
				it := h.itemOff(victim)
				corrupt.FlipBit(h.heap(), h.book.Store().DebugValOff(it)+row.flipByte, uint(row.flipByte%8)*8+3)

				// The read path does not checksum values (that is the
				// scrubber's job); after a full scrub cycle the item must
				// be quarantined.
				h.maintain()
				if _, _, err := h.s.Get(h.keys[victim]); err == nil {
					t.Fatal("corrupted value still served after a full scrub cycle")
				}
				st := h.book.Stats()
				if st.CorruptionsDetected < 1 || st.ItemsQuarantined < 1 {
					t.Fatalf("counters after value corruption: detected=%d quarantined=%d",
						st.CorruptionsDetected, st.ItemsQuarantined)
				}
				if n := h.sweep(); n != 1 {
					t.Fatalf("%d keys lost to a single-item value corruption, want exactly 1", n)
				}
				h.verifyHeap()
			})
		}
	})

	t.Run("chain_pointer", func(t *testing.T) {
		h := newCorruptHarness(t, false)
		// Find an item with a successor, so the flipped pointer actually
		// tears a chain rather than a null.
		victim, it := -1, uint64(0)
		for i := range h.keys {
			cand := h.itemOff(i)
			if h.heap().Load64(cand+core.DebugItemHNext) != 0 {
				victim, it = i, cand
				break
			}
		}
		if victim < 0 {
			t.Fatal("no chained items; raise the key count")
		}
		corrupt.FlipBit(h.heap(), it+core.DebugItemHNext, 1) // misaligned garbage link

		// The item ahead of the tear still serves; reads behind it must
		// miss or error, never fabricate.
		if v, _, err := h.s.Get(h.keys[victim]); err != nil || !bytes.Equal(v, h.vals[victim]) {
			t.Fatalf("item before the tear lost: %q, %v", v, err)
		}
		h.maintain() // the scrubber truncates the implausible link
		// Two containment routes are legitimate: the scrubber spots the
		// implausible link and truncates (counted), or an earlier
		// maintenance walk trips over it first and panics into a full
		// structural repair (recorded as a repair pass).
		st := h.book.Stats()
		_, repairs := h.book.LastRepair()
		if st.CorruptionsDetected < 1 && repairs < 1 {
			t.Fatalf("torn chain neither scrubbed (detected=%d) nor repaired (repairs=%d)",
				st.CorruptionsDetected, repairs)
		}
		misses := h.sweep()
		t.Logf("chain tear: %d keys degraded to misses", misses)
		h.verifyHeap()
	})

	t.Run("lru_link", func(t *testing.T) {
		if testing.Short() {
			t.Skip("recovery-cycle class skipped in -short")
		}
		h := newCorruptHarness(t, false)
		const victim = 99
		it := h.itemOff(victim)
		corrupt.FlipBit(h.heap(), it+core.DebugItemLRUNext, 1)

		// Unlinking the victim must not scribble through the corrupt LRU
		// pointer: the hardened splice panics into a full structural
		// repair instead. The failing Delete unwinds as an error.
		if err := h.s.Delete(h.keys[victim]); err == nil {
			// The corrupt link may have been on an untouched neighbor
			// path; either way the store must stay coherent below.
			t.Log("delete succeeded without touching the corrupt link")
		}
		h.waitHealthy()
		h.maintain()
		if n := h.sweep(); n > corruptKeys/2 {
			t.Fatalf("%d keys lost to a single LRU-link corruption", n)
		}
		h.verifyHeap()
	})

	t.Run("stats_slot", func(t *testing.T) {
		if testing.Short() {
			t.Skip("recovery-cycle class skipped in -short")
		}
		h := newCorruptHarness(t, false)
		walked := h.s.Ctx().ForEach(func(*core.Entry) bool { return true })
		corrupt.FlipBit(h.heap(),
			h.book.Store().DebugStatsSlotOff(3)+core.DebugStatCurrItems*8, 13)

		// Statistics degrade; service must not. Every key still reads
		// back exactly.
		if n := h.sweep(); n != 0 {
			t.Fatalf("%d keys lost to a stats-slot corruption", n)
		}
		// A structural repair rebuilds the counters from the survivors.
		doomedProc, err := h.book.NewClientProcess(1002)
		if err != nil {
			t.Fatal(err)
		}
		doomed, err := doomedProc.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := faultpoint.Arm("ops.store.locked", func() {
			panic("corruptmatrix: injected crash to force a repair")
		}); err != nil {
			t.Fatal(err)
		}
		defer faultpoint.DisarmAll()
		if err := doomed.Set([]byte("doomed"), []byte("v"), 0, 0); err == nil {
			t.Fatal("crashed call returned nil error")
		}
		faultpoint.DisarmAll()
		h.waitHealthy()
		st := h.book.Stats()
		if st.CurrItems != uint64(walked) {
			t.Fatalf("repair did not rebuild CurrItems: %d, want %d", st.CurrItems, walked)
		}
		if n := h.sweep(); n != 0 {
			t.Fatalf("%d keys lost across the stats repair", n)
		}
		h.verifyHeap()
	})

	t.Run("persistent_root", func(t *testing.T) {
		h := newCorruptHarness(t, true)
		if err := h.book.Checkpoint(); err != nil { // generation 1: intact
			t.Fatal(err)
		}
		if err := h.s.Set([]byte("at-risk"), []byte("late"), 0, 0); err != nil {
			t.Fatal(err)
		}
		// Corrupt a persistent root in the live heap, then checkpoint: the
		// generation-2 image is checksum-clean (the checksums faithfully
		// cover corrupt bytes) but semantically broken — only the
		// allocator fsck in the open path can tell.
		corrupt.FlipBit(h.heap(), ralloc.RootSlotOff(core.RootPrimaryHT), 3)
		if err := h.book.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// The bookkeeper dies; a fresh one must reject generation 2 on
		// semantic verification and fall back to generation 1.
		book2, err := memcached.OpenStore(memcached.Config{Path: h.path})
		if err != nil {
			t.Fatalf("reload with a corrupt newest image: %v", err)
		}
		defer book2.Shutdown()
		if gen := book2.CheckpointGeneration(); gen != 1 {
			t.Fatalf("reloaded generation = %d, want fallback to 1", gen)
		}
		cp, _ := book2.NewClientProcess(1003)
		s2, err := cp.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		for i, k := range h.keys {
			if v, _, err := s2.Get(k); err != nil || !bytes.Equal(v, h.vals[i]) {
				t.Fatalf("key %s lost in the generation fallback: %q, %v", k, v, err)
			}
		}
		if _, _, err := s2.Get([]byte("at-risk")); err == nil {
			t.Fatal("post-checkpoint write survived a fallback to the older generation")
		}
	})

	t.Run("image_header", func(t *testing.T) {
		h := newCorruptHarness(t, true)
		if err := h.book.Checkpoint(); err != nil { // generation 1
			t.Fatal(err)
		}
		if err := h.s.Set([]byte("at-risk"), []byte("late"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.book.Checkpoint(); err != nil { // generation 2
			t.Fatal(err)
		}
		// Flip one bit of generation 2's header on disk.
		if err := corrupt.FlipFileBit(shm.CheckpointSlot(h.path, 2), 16, 2); err != nil {
			t.Fatal(err)
		}
		book2, err := memcached.OpenStore(memcached.Config{Path: h.path})
		if err != nil {
			t.Fatalf("reload with a corrupt newest header: %v", err)
		}
		defer book2.Shutdown()
		if gen := book2.CheckpointGeneration(); gen != 1 {
			t.Fatalf("reloaded generation = %d, want fallback to 1", gen)
		}
		cp, _ := book2.NewClientProcess(1003)
		s2, err := cp.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		for i, k := range h.keys {
			if v, _, err := s2.Get(k); err != nil || !bytes.Equal(v, h.vals[i]) {
				t.Fatalf("key %s lost in the header fallback: %q, %v", k, v, err)
			}
		}
		if _, _, err := s2.Get([]byte("at-risk")); err == nil {
			t.Fatal("post-checkpoint write survived a fallback to the older generation")
		}
	})
}
