package ralloc

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"plibmc/internal/shm"
)

func newHeapAlloc(t *testing.T, size uint64) (*shm.Heap, *Allocator) {
	t.Helper()
	h := shm.New(size)
	a, err := Format(h)
	if err != nil {
		t.Fatal(err)
	}
	return h, a
}

func TestFormatOpen(t *testing.T) {
	h, a := newHeapAlloc(t, 1<<21)
	if a.Capacity() == 0 || a.Capacity()%ChunkSize != 0 {
		t.Fatalf("capacity = %d", a.Capacity())
	}
	if _, err := Format(h); err == nil {
		t.Fatal("double Format should fail")
	}
	if _, err := Open(h); err != nil {
		t.Fatalf("Open of formatted heap: %v", err)
	}
	if _, err := Open(shm.New(1 << 20)); err == nil {
		t.Fatal("Open of unformatted heap should fail")
	}
	if _, err := Format(shm.New(shm.PageSize)); err == nil {
		t.Fatal("Format of tiny heap should fail")
	}
}

func TestMallocBasic(t *testing.T) {
	_, a := newHeapAlloc(t, 1<<21)
	c := a.NewCache()
	off, err := c.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if off%8 != 0 {
		t.Fatalf("block %#x not 8-aligned", off)
	}
	if got := a.SizeOf(off); got != 128 {
		t.Fatalf("SizeOf(100-byte alloc) = %d, want 128 (class rounding)", got)
	}
	if a.LiveBytes() != 128 {
		t.Fatalf("LiveBytes = %d", a.LiveBytes())
	}
	if err := c.Free(off); err != nil {
		t.Fatal(err)
	}
	if a.LiveBytes() != 0 {
		t.Fatalf("LiveBytes after free = %d", a.LiveBytes())
	}
}

func TestMallocZeroAndCalloc(t *testing.T) {
	h, a := newHeapAlloc(t, 1<<21)
	c := a.NewCache()
	off, err := c.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.SizeOf(off) == 0 {
		t.Fatal("zero-byte malloc should still return a block")
	}
	// Dirty a block, free it, calloc should hand back zeroed memory.
	h.WriteBytes(off, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if err := c.Free(off); err != nil {
		t.Fatal(err)
	}
	off2, err := c.Calloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off {
		t.Logf("calloc returned different block %#x (ok)", off2)
	}
	b := h.Bytes(off2, 4)
	for _, x := range b {
		if x != 0 {
			t.Fatalf("calloc returned dirty memory % x", b)
		}
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		n    uint64
		want uint64 // class size, or 0 for large
	}{
		{1, 16}, {16, 16}, {17, 24}, {128, 128}, {129, 192},
		{5000, 6144}, {16384, 16384}, {16385, 0},
	}
	for _, cse := range cases {
		ci := classFor(cse.n)
		if cse.want == 0 {
			if ci != -1 {
				t.Errorf("classFor(%d) = %d, want large", cse.n, ci)
			}
			continue
		}
		if ci < 0 || classSizes[ci] != cse.want {
			t.Errorf("classFor(%d) -> size %d, want %d", cse.n, classSizes[ci], cse.want)
		}
	}
}

func TestNoOverlapAcrossSizes(t *testing.T) {
	_, a := newHeapAlloc(t, 1<<22)
	c := a.NewCache()
	type block struct{ off, size uint64 }
	var blocks []block
	sizes := []uint64{1, 8, 16, 17, 100, 500, 1000, 5000, 16000, 70000}
	for i := 0; i < 200; i++ {
		n := sizes[i%len(sizes)]
		off, err := c.Malloc(n)
		if err != nil {
			t.Fatalf("alloc %d of %d bytes: %v", i, n, err)
		}
		blocks = append(blocks, block{off, a.SizeOf(off)})
	}
	for i, b1 := range blocks {
		if b1.size == 0 {
			t.Fatalf("block %d has zero SizeOf", i)
		}
		for j, b2 := range blocks {
			if i == j {
				continue
			}
			if b1.off < b2.off+b2.size && b2.off < b1.off+b1.size {
				t.Fatalf("blocks overlap: [%#x,+%d) and [%#x,+%d)", b1.off, b1.size, b2.off, b2.size)
			}
		}
	}
	for _, b := range blocks {
		if err := c.Free(b.off); err != nil {
			t.Fatal(err)
		}
	}
	if a.LiveBytes() != 0 {
		t.Fatalf("LiveBytes after freeing everything = %d", a.LiveBytes())
	}
}

func TestLargeAllocations(t *testing.T) {
	_, a := newHeapAlloc(t, 1<<22) // 4 MiB
	c := a.NewCache()
	off, err := c.Malloc(3 * ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if a.SizeOf(off) != 3*ChunkSize {
		t.Fatalf("SizeOf(large) = %d", a.SizeOf(off))
	}
	if off%ChunkSize != (a.chunkOff % ChunkSize) {
		t.Fatalf("large block %#x not chunk-aligned", off)
	}
	// The continuation chunks must not be allocatable or freeable.
	if err := c.Free(off + ChunkSize); !errors.Is(err, ErrBadFree) {
		t.Fatalf("free of continuation chunk = %v", err)
	}
	if err := c.Free(off); err != nil {
		t.Fatal(err)
	}
	if a.LiveBytes() != 0 {
		t.Fatalf("LiveBytes = %d", a.LiveBytes())
	}
	// Space must be reusable.
	off2, err := c.Malloc(3 * ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off {
		t.Logf("large realloc moved (%#x -> %#x), fine", off, off2)
	}
}

func TestBadFree(t *testing.T) {
	_, a := newHeapAlloc(t, 1<<21)
	c := a.NewCache()
	if err := c.Free(0); !errors.Is(err, ErrBadFree) {
		t.Fatal("free(0) should be rejected")
	}
	if err := c.Free(a.chunkOff); !errors.Is(err, ErrBadFree) {
		t.Fatal("free of never-allocated chunk should be rejected")
	}
	off, _ := c.Malloc(64)
	if err := c.Free(off + 8); !errors.Is(err, ErrBadFree) {
		t.Fatal("free of block interior should be rejected")
	}
	if err := c.Free(off); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfMemoryAndRecovery(t *testing.T) {
	_, a := newHeapAlloc(t, 4*ChunkSize)
	c := a.NewCache()
	var blocks []uint64
	for {
		off, err := c.Malloc(16000)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("unexpected error %v", err)
			}
			break
		}
		blocks = append(blocks, off)
	}
	if len(blocks) == 0 {
		t.Fatal("no allocations succeeded")
	}
	// Free one block: allocation works again.
	if err := c.Free(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Malloc(16000); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	// Large allocation bigger than the whole heap.
	if _, err := c.Malloc(1 << 30); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized alloc = %v", err)
	}
}

func TestSpillAndCrossCacheReuse(t *testing.T) {
	_, a := newHeapAlloc(t, 1<<21)
	c1 := a.NewCache()
	c2 := a.NewCache()
	var blocks []uint64
	for i := 0; i < 3*cacheMax; i++ {
		off, err := c1.Malloc(32)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, off)
	}
	for _, off := range blocks {
		if err := c1.Free(off); err != nil {
			t.Fatal(err)
		}
	}
	c1.Flush()
	// All blocks are now on the global list; cache 2 can obtain them.
	seen := map[uint64]bool{}
	for _, b := range blocks {
		seen[b] = true
	}
	got := 0
	for i := 0; i < len(blocks); i++ {
		off, err := c2.Malloc(32)
		if err != nil {
			t.Fatal(err)
		}
		if seen[off] {
			got++
		}
	}
	if got < len(blocks)/2 {
		t.Fatalf("cache 2 reused only %d/%d flushed blocks", got, len(blocks))
	}
}

func TestRoots(t *testing.T) {
	_, a := newHeapAlloc(t, 1<<21)
	c := a.NewCache()
	off, _ := c.Malloc(128)
	a.SetRoot(3, off)
	if got := a.GetRoot(3); got != off {
		t.Fatalf("GetRoot = %#x, want %#x", got, off)
	}
	if a.GetRoot(4) != 0 {
		t.Fatal("unset root should be 0")
	}
	a.SetRoot(3, 0)
	if a.GetRoot(3) != 0 {
		t.Fatal("cleared root should be 0")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range root should panic")
			}
		}()
		a.SetRoot(NumRoots, 1)
	}()
}

func TestPersistenceAcrossReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "heap.img")

	h, a := newHeapAlloc(t, 1<<21)
	c := a.NewCache()
	off, err := c.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	h.WriteBytes(off, []byte("survives restart"))
	a.SetRoot(0, off)
	c.Flush()
	if err := h.Flush(path); err != nil {
		t.Fatal(err)
	}

	h2, err := shm.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Open(h2)
	if err != nil {
		t.Fatal(err)
	}
	root := a2.GetRoot(0)
	if root != off {
		t.Fatalf("root after reload = %#x, want %#x", root, off)
	}
	if got := string(h2.Bytes(root, 16)); got != "survives restart" {
		t.Fatalf("data after reload = %q", got)
	}
	if a2.LiveBytes() != a.LiveBytes() {
		t.Fatalf("LiveBytes after reload = %d, want %d", a2.LiveBytes(), a.LiveBytes())
	}
	// The reloaded allocator keeps allocating without clobbering old data.
	c2 := a2.NewCache()
	for i := 0; i < 100; i++ {
		o, err := c2.Malloc(256)
		if err != nil {
			t.Fatal(err)
		}
		if o == root {
			t.Fatal("reloaded allocator handed out a live block")
		}
	}
	if got := string(h2.Bytes(root, 16)); got != "survives restart" {
		t.Fatal("old data clobbered by post-reload allocation")
	}
}

// Property: any interleaving of mallocs and frees keeps LiveBytes equal to
// the sum of live block sizes, and never hands out overlapping blocks.
func TestQuickAllocModel(t *testing.T) {
	f := func(ops []uint16) bool {
		_, a := newHeapAlloc(t, 1<<21)
		c := a.NewCache()
		live := map[uint64]uint64{}
		var total uint64
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 { // alloc twice as often as free
				n := uint64(op)%2048 + 1
				off, err := c.Malloc(n)
				if err != nil {
					return false
				}
				sz := a.SizeOf(off)
				for o, s := range live {
					if off < o+s && o < off+sz {
						return false // overlap
					}
				}
				live[off] = sz
				total += sz
			} else {
				for off, sz := range live {
					if c.Free(off) != nil {
						return false
					}
					delete(live, off)
					total -= sz
					break
				}
			}
		}
		return a.LiveBytes() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	h, a := newHeapAlloc(t, 1<<23)
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			c := a.NewCache()
			defer c.Flush()
			var mine []uint64
			for i := 0; i < iters; i++ {
				n := uint64(i%500) + 1
				off, err := c.Malloc(n)
				if err != nil {
					errs <- err
					return
				}
				// Stamp the block and verify ownership later: catches
				// double-allocation across workers. Relaxed, as Malloc
				// asks of stores to a fresh block's first word.
				h.RelaxedStore64(off, id<<32|uint64(i))
				mine = append(mine, off)
				if len(mine) > 64 {
					victim := mine[0]
					mine = mine[1:]
					if got := h.Load64(victim); got>>32 != id {
						errs <- errBlockStolen
						return
					}
					if err := c.Free(victim); err != nil {
						errs <- err
						return
					}
				}
			}
			for _, off := range mine {
				if got := h.Load64(off); got>>32 != id {
					errs <- errBlockStolen
					return
				}
				if err := c.Free(off); err != nil {
					errs <- err
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if a.LiveBytes() != 0 {
		t.Fatalf("LiveBytes after stress = %d", a.LiveBytes())
	}
}

var errBlockStolen = errors.New("block handed to two owners")

func TestPptrRoundtrip(t *testing.T) {
	h := shm.New(shm.PageSize)
	StorePptr(h, 64, 4000)
	if got := LoadPptr(h, 64); got != 4000 {
		t.Fatalf("pptr roundtrip = %d", got)
	}
	StorePptr(h, 64, 0)
	if LoadPptr(h, 64) != 0 {
		t.Fatal("nil pptr")
	}
	// Backward distances too.
	StorePptr(h, 2048, 8)
	if got := LoadPptr(h, 2048); got != 8 {
		t.Fatalf("backward pptr = %d", got)
	}
	AtomicStorePptr(h, 128, 512)
	if AtomicLoadPptr(h, 128) != 512 {
		t.Fatal("atomic pptr")
	}
	AtomicStorePptr(h, 128, 0)
	if AtomicLoadPptr(h, 128) != 0 {
		t.Fatal("atomic nil pptr")
	}
}

// Property: a pptr stored at any slot, pointing anywhere, reads back
// exactly — position independence is a consequence, verified separately.
func TestQuickPptr(t *testing.T) {
	h := shm.New(16 * shm.PageSize)
	f := func(atRaw, targetRaw uint16) bool {
		at := (uint64(atRaw) % (h.Size() - 8)) &^ 7
		target := uint64(targetRaw) % h.Size()
		if target == 0 {
			target = 1
		}
		StorePptr(h, at, target)
		return LoadPptr(h, at) == target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPptrPositionIndependence(t *testing.T) {
	// The same heap bytes resolve to the same object under any mapping.
	h := shm.New(shm.PageSize)
	h.WriteBytes(512, []byte("target"))
	StorePptr(h, 64, 512)

	v1, _ := h.Map(0x10000)
	v2, _ := h.Map(0x7f00_0000_0000)
	a1 := ResolveVirtual(h, v1, 64)
	a2 := ResolveVirtual(h, v2, 64)
	if a1 == a2 {
		t.Fatal("virtual addresses should differ across views")
	}
	if v1.Off(a1) != v2.Off(a2) || v1.Off(a1) != 512 {
		t.Fatal("both views must resolve to the same heap object")
	}
	if got := string(h.Bytes(v1.Off(a1), 6)); got != "target" {
		t.Fatalf("resolved object = %q", got)
	}
	StorePptr(h, 64, 0)
	if ResolveVirtual(h, v1, 64) != 0 {
		t.Fatal("nil pptr should resolve to 0")
	}
}

func BenchmarkMallocFree128(b *testing.B) {
	h := shm.New(1 << 24)
	a, err := Format(h)
	if err != nil {
		b.Fatal(err)
	}
	c := a.NewCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := c.Malloc(128)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Free(off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMallocFreeParallel(b *testing.B) {
	h := shm.New(1 << 26)
	a, err := Format(h)
	if err != nil {
		b.Fatal(err)
	}
	_ = h
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		c := a.NewCache()
		defer c.Flush()
		for pb.Next() {
			off, err := c.Malloc(128)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Free(off); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestClassStats(t *testing.T) {
	_, a := newHeapAlloc(t, 1<<22)
	c := a.NewCache()
	var offs []uint64
	for i := 0; i < 100; i++ {
		off, err := c.Malloc(100) // class 128
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	for _, off := range offs[:50] {
		c.Free(off)
	}
	c.Flush()
	stats := a.ClassStats()
	if len(stats) != 1 {
		t.Fatalf("stats for %d classes, want 1", len(stats))
	}
	cs := stats[0]
	if cs.ClassSize != 128 || cs.Chunks != 1 {
		t.Fatalf("class stat = %+v", cs)
	}
	if cs.TotalBlocks != 65536/128 {
		t.Fatalf("TotalBlocks = %d", cs.TotalBlocks)
	}
	// 50 freed + (512-100) never-handed-out blocks are free.
	if cs.FreeBlocks != cs.TotalBlocks-50 {
		t.Fatalf("FreeBlocks = %d, want %d", cs.FreeBlocks, cs.TotalBlocks-50)
	}
}

// TestPopRaceClean hammers one size class's global free list from several
// caches at once, each refilling (pop) and flushing (pushChain) on every
// round. A popper that loses the head CAS has already read the link word
// of a block whose new owner is storing to it — Calloc's zeroing here,
// newItem's first header store in package core. The tagged CAS discards
// that read, so it is benign, but it must go through the relaxed accessors
// on both sides or `go test -race` reports it.
func TestPopRaceClean(t *testing.T) {
	_, a := newHeapAlloc(t, 1<<22)
	const workers, rounds = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := a.NewCache()
				off, err := c.Calloc(64)
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.Free(off); err != nil {
					t.Error(err)
					return
				}
				c.Flush()
			}
		}()
	}
	wg.Wait()
	if a.LiveBytes() != 0 {
		t.Fatalf("LiveBytes after stress = %d", a.LiveBytes())
	}
}
