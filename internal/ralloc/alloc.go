package ralloc

import "plibmc/internal/faultpoint"

// Crash-injection sites for the recovery fault matrix. Both sit after the
// allocator's own state transitions complete, so a thread dying there
// leaks the block (the accounting stays within Check's tolerance) but
// never leaves a chunk-directory word in a transient state.
var (
	fpMallocCarved = faultpoint.New("ralloc.malloc.carved") // block obtained, about to be returned
	fpFreeEnter    = faultpoint.New("ralloc.free.enter")    // caller unlinked the block, free not started
)

// Global free lists.
//
// Each size class has a heap-resident Treiber stack of free blocks. The
// head word packs a 16-bit ABA tag with a 48-bit block offset; each free
// block's first word holds the offset of the next free block (plain heap
// offsets are position independent, so the lists survive remapping and
// restart). Push and pop are single-CAS and lock-free, which is what lets
// the paper call Ralloc "entirely nonblocking"; the one exception here is
// the multi-chunk large path, which takes a spinlock because it must find
// contiguous chunks (large allocations are rare in memcached — hash tables
// and little else).
//
// pop reads a block's link word before it knows it has won the block; if it
// loses, the read overlapped whatever the winner stored there and the
// failed CAS throws it away. So that read, and every store to a block's
// first word that can follow a pop without other synchronization — the
// link stores below, Calloc's zeroing, and a Malloc caller's stores until
// it publishes the block — goes through the relaxed accessors, which tell
// the race detector the overlap is meant.

const (
	tagShift = 48
	offMask  = (uint64(1) << tagShift) - 1
)

func packHead(tag, off uint64) uint64 { return tag<<tagShift | off&offMask }
func headOff(h uint64) uint64         { return h & offMask }
func headTag(h uint64) uint64         { return h >> tagShift }

// pushChain atomically pushes the chain first..last (already linked through
// their first words) onto class ci's global free list.
func (a *Allocator) pushChain(ci int, first, last uint64) {
	headAddr := offClassHead + uint64(ci)*8
	for {
		old := a.h.AtomicLoad64(headAddr)
		a.h.RelaxedStore64(last, headOff(old))
		if a.h.CAS64(headAddr, old, packHead(headTag(old)+1, first)) {
			return
		}
	}
}

// pushBlocks links blocks into a chain through their first words and
// pushes it onto class ci's global free list.
func (a *Allocator) pushBlocks(ci int, blocks []uint64) {
	last := len(blocks) - 1
	for i := 0; i < last; i++ {
		a.h.RelaxedStore64(blocks[i], blocks[i+1])
	}
	a.h.RelaxedStore64(blocks[last], 0)
	a.pushChain(ci, blocks[0], blocks[last])
}

// pop removes one block from class ci's global free list, returning 0 if
// the list is empty.
func (a *Allocator) pop(ci int) uint64 {
	headAddr := offClassHead + uint64(ci)*8
	for {
		old := a.h.AtomicLoad64(headAddr)
		off := headOff(old)
		if off == 0 {
			return 0
		}
		next := a.h.RelaxedLoad64(off)
		if a.h.CAS64(headAddr, old, packHead(headTag(old)+1, next)) {
			return off
		}
	}
}

// carveChunk claims a free chunk for class ci and shatters it into blocks.
// It returns the chain (first, last, count) of carved blocks, or first == 0
// if the heap has no free chunks. Claiming is a single CAS on the directory
// word, so this path is lock-free too.
func (a *Allocator) carveChunk(ci int) (first, last, count uint64) {
	idx, ok := a.claimChunk(uint64(ci) + 1)
	if !ok {
		return 0, 0, 0
	}
	base := a.chunkOff + idx*ChunkSize
	size := classSizes[ci]
	n := uint64(ChunkSize) / size
	// Link the blocks front to back through their first words.
	for i := uint64(0); i < n-1; i++ {
		a.h.RelaxedStore64(base+i*size, base+(i+1)*size)
	}
	a.h.RelaxedStore64(base+(n-1)*size, 0)
	return base, base + (n-1)*size, n
}

// claimChunk finds a free chunk and CASes its directory word to word,
// returning its index. The rotating hint makes the scan amortized O(1).
func (a *Allocator) claimChunk(word uint64) (uint64, bool) {
	start := a.h.AtomicLoad64(offNextChunk) % a.nChunks
	for i := uint64(0); i < a.nChunks; i++ {
		idx := (start + i) % a.nChunks
		dirAddr := a.chunkDir + idx*8
		if a.h.AtomicLoad64(dirAddr) == dirFree && a.h.CAS64(dirAddr, dirFree, word) {
			a.h.AtomicStore64(offNextChunk, idx+1)
			return idx, true
		}
	}
	return 0, false
}

// Per-thread cache.

const (
	cacheRefill = 32 // blocks fetched from the global list per miss
	cacheMax    = 64 // blocks held per class before flushing half
)

// Cache is a per-thread allocation cache (Ralloc's thread-local caches,
// the main source of its scalability). A Cache must be used by a single
// thread; create one per client thread with NewCache and Flush it when the
// thread is done so cached blocks return to the shared lists.
type Cache struct {
	a     *Allocator
	lists [numClasses][]uint64
}

// NewCache creates a per-thread cache over the allocator.
func (a *Allocator) NewCache() *Cache {
	return &Cache{a: a}
}

// Malloc allocates n bytes from the shared heap and returns its heap
// offset. The block is 8-aligned and its contents are unspecified
// (like malloc). Until the block is published to other threads, store to
// its first word with the relaxed accessors (see "Global free lists").
func (c *Cache) Malloc(n uint64) (uint64, error) {
	if n == 0 {
		n = 1
	}
	ci := classFor(n)
	if ci < 0 {
		return c.a.largeAlloc(n)
	}
	l := c.lists[ci]
	if len(l) == 0 {
		if !c.refill(ci) {
			return 0, ErrOutOfMemory
		}
		l = c.lists[ci]
	}
	off := l[len(l)-1]
	c.lists[ci] = l[:len(l)-1]
	c.a.h.Add64(offLiveBytes, classSizes[ci])
	fpMallocCarved.Maybe()
	return off, nil
}

// Calloc allocates n bytes and zeroes them (pm_calloc).
func (c *Cache) Calloc(n uint64) (uint64, error) {
	off, err := c.Malloc(n)
	if err != nil {
		return 0, err
	}
	c.a.h.RelaxedStore64(off, 0) // the link word; see "Global free lists"
	if n > 8 {
		c.a.h.Zero(off+8, n-8)
	}
	return off, nil
}

// refill pulls blocks for class ci from the global free list, carving a new
// chunk if the list is dry.
func (c *Cache) refill(ci int) bool {
	for i := 0; i < cacheRefill; i++ {
		off := c.a.pop(ci)
		if off == 0 {
			break
		}
		c.lists[ci] = append(c.lists[ci], off)
	}
	if len(c.lists[ci]) > 0 {
		return true
	}
	first, _, count := c.a.carveChunk(ci)
	if first == 0 {
		return false
	}
	// Keep up to cacheRefill blocks; chain-push the remainder globally.
	kept := uint64(0)
	off := first
	for off != 0 && kept < cacheRefill && kept < count {
		next := c.a.h.Load64(off)
		c.lists[ci] = append(c.lists[ci], off)
		kept++
		off = next
	}
	if off != 0 {
		// off begins the remainder chain; find its tail.
		last := off
		for {
			next := c.a.h.Load64(last)
			if next == 0 {
				break
			}
			last = next
		}
		c.a.pushChain(ci, off, last)
	}
	return true
}

// Free returns the block at off to the heap. Freeing an offset that is not
// the base of a live block returns ErrBadFree and leaves the heap intact.
func (c *Cache) Free(off uint64) error {
	fpFreeEnter.Maybe()
	ci, word := c.a.chunkOf(off)
	if ci < 0 {
		return ErrBadFree
	}
	switch {
	case word == dirFree || word == dirClaimed || word&dirContBit != 0:
		return ErrBadFree
	case word&dirLargeBit != 0:
		return c.a.largeFree(off, word)
	}
	class := int(word - 1)
	size := classSizes[class]
	chunkBase := c.a.chunkOff + (off-c.a.chunkOff)/ChunkSize*ChunkSize
	if (off-chunkBase)%size != 0 {
		return ErrBadFree
	}
	c.lists[class] = append(c.lists[class], off)
	c.a.h.Add64(offLiveBytes, ^(size - 1)) // subtract size
	if len(c.lists[class]) > cacheMax {
		c.spill(class)
	}
	return nil
}

// spill pushes the older half of a class's cache back to the global list
// and moves the younger half down in place, so the list keeps its capacity
// and a free allocates no Go memory.
func (c *Cache) spill(class int) {
	l := c.lists[class]
	half := len(l) / 2
	c.a.pushBlocks(class, l[:half])
	c.lists[class] = l[:copy(l, l[half:])]
}

// Flush returns every cached block to the global free lists. Call it when
// the owning thread exits.
func (c *Cache) Flush() {
	for class := range c.lists {
		l := c.lists[class]
		if len(l) == 0 {
			continue
		}
		c.a.pushBlocks(class, l)
		c.lists[class] = nil
	}
}

// Large allocations: whole chunks, found under the allocation lock.

func (a *Allocator) largeAlloc(n uint64) (uint64, error) {
	count := (n + ChunkSize - 1) / ChunkSize
	a.h.LockAcquire(offAllocLock, 1)
	defer a.h.LockRelease(offAllocLock)
	run := uint64(0)
	for idx := uint64(0); idx < a.nChunks; idx++ {
		if a.h.AtomicLoad64(a.chunkDir+idx*8) != dirFree {
			run = 0
			continue
		}
		run++
		if run == count {
			start := idx - count + 1
			a.h.AtomicStore64(a.chunkDir+start*8, dirLargeBit|count)
			for j := start + 1; j <= idx; j++ {
				a.h.AtomicStore64(a.chunkDir+j*8, dirContBit|start)
			}
			a.h.Add64(offLiveBytes, count*ChunkSize)
			return a.chunkOff + start*ChunkSize, nil
		}
	}
	return 0, ErrOutOfMemory
}

func (a *Allocator) largeFree(off, word uint64) error {
	if (off-a.chunkOff)%ChunkSize != 0 {
		return ErrBadFree
	}
	count := word &^ dirLargeBit
	start := (off - a.chunkOff) / ChunkSize
	a.h.LockAcquire(offAllocLock, 1)
	defer a.h.LockRelease(offAllocLock)
	for j := start; j < start+count; j++ {
		a.h.AtomicStore64(a.chunkDir+j*8, dirFree)
	}
	a.h.Add64(offLiveBytes, ^(count*ChunkSize - 1))
	return nil
}
