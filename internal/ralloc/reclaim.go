package ralloc

// Chunk reclamation.
//
// Freed blocks normally stay dedicated to their size class (that is what
// gives the allocator its no-external-fragmentation behaviour for a stable
// size mix). When the mix shifts, fully-free chunks can be returned to the
// shared pool: Reclaim drains each class's global free list, identifies
// chunks whose every block is free, releases those chunks, and pushes the
// rest back. Blocks held in per-thread caches pin their chunks (best
// effort — flush caches first for maximal reclamation).
//
// Reclaim is a maintenance operation for the bookkeeping process; it is
// safe to run concurrently with allocation, though allocations in the
// drained class can transiently fail over to carving fresh chunks.

// Reclaim scans every size class and returns the number of chunks given
// back to the shared pool.
func (a *Allocator) Reclaim() int {
	reclaimed := 0
	for ci := range classSizes {
		reclaimed += a.reclaimClass(ci)
	}
	return reclaimed
}

func (a *Allocator) reclaimClass(ci int) int {
	size := classSizes[ci]
	perChunk := uint64(ChunkSize) / size

	// Drain the global free list for this class.
	byChunk := make(map[uint64][]uint64)
	total := 0
	for {
		off := a.pop(ci)
		if off == 0 {
			break
		}
		chunk := (off - a.chunkOff) / ChunkSize
		byChunk[chunk] = append(byChunk[chunk], off)
		total++
	}
	if total == 0 {
		return 0
	}

	reclaimed := 0
	var keep []uint64
	for chunk, blocks := range byChunk {
		if uint64(len(blocks)) == perChunk {
			// Every block of the chunk is on the free list: no live or
			// cached block can reference it. Return it to the pool.
			a.h.AtomicStore64(a.chunkDir+chunk*8, dirFree)
			reclaimed++
		} else {
			keep = append(keep, blocks...)
		}
	}
	if len(keep) > 0 {
		a.pushBlocks(ci, keep)
	}
	return reclaimed
}
