package core

// Scattered statistics.
//
// The paper found that the single lock protecting request statistics became
// a bottleneck once clients execute operations themselves, and scattered
// the statistics across the slots of a shared array: "most updates are now
// made to a slot that is not being used concurrently. Statistics-retrieving
// calls must scan the whole array." Each context updates its own slot with
// atomic adds; Stats() sums every slot. Per-slot values may be negative
// (an item linked through one slot and unlinked through another); only the
// sums are meaningful.

// Count the exception: a Get ends in exactly one of statGetHits and
// statGetMisses, so Gets is their sum, and one that takes the bucket lock
// counts statGetLocked going in, so the optimistic ones are the rest — an
// optimistic hit pays one add. The two Base words are where older heap
// images counted Gets and optimistic Gets: read-only now (DESIGN.md §11).
const (
	statGetsBase = iota
	statGetHits
	statGetMisses
	statSets
	statDeletes
	statDeleteHits
	statIncrs
	statTouches
	statEvictions
	statExpired
	statCASMismatch
	statCurrItems
	statTotalItems
	statBytes
	statFlushes
	statGetFastpathBase
	statSeqRetries
	statRecoveries
	statRepairDropped
	statDecrs
	statCorruptDetected
	statItemsQuarantined
	statBatches
	statBatchedOps
	statGetLocked
	numStatCounters
)

// statSlotSize is padded to whole cache lines to keep slots from false
// sharing (four lines now that the counter set outgrew two).
const statSlotSize = 32 * 8

// Stats is a consistent-enough snapshot of the store's counters.
type Stats struct {
	Gets, GetHits, GetMisses        uint64
	Sets                            uint64
	Deletes, DeleteHits             uint64
	Incrs, Decrs, Touches           uint64
	Evictions, Expired, CASMismatch uint64
	CurrItems, TotalItems, Bytes    uint64
	Flushes                         uint64
	// GetFastpathHits counts Gets served entirely by the lock-free
	// optimistic path (hits and validated misses alike); SeqlockRetries
	// counts discarded optimistic attempts (odd or changed sequence).
	GetFastpathHits, SeqlockRetries uint64
	// Recoveries counts completed structural repair passes;
	// ItemsDroppedInRepair counts orphaned or torn items those passes
	// had to discard.
	Recoveries, ItemsDroppedInRepair uint64
	// CorruptionsDetected counts checksum or invariant failures found by
	// the read paths and the scrubber; ItemsQuarantined counts the items
	// those detections removed from service.
	CorruptionsDetected, ItemsQuarantined uint64
	// Batches counts ExecBatch dispatches (one gate admission each);
	// BatchedOps counts the operations they carried. BatchedOps/Batches is
	// the mean batch size, the amortization factor over gate crossings.
	Batches, BatchedOps uint64
}

// stat adds delta to one counter in this context's slot. In LockedStats
// mode (the original design the paper abandoned) every update instead
// serializes on one heap-resident lock around slot 0.
func (c *Ctx) stat(counter int, delta int64) {
	if c.statDefer {
		// Batch dispatch: accumulate privately, publish once per admission
		// (statFlushDeferred). A crash mid-batch loses the local deltas, but
		// repair recomputes the one structural counter (curr_items) from its
		// heap walk; the rest are advisory traffic counters.
		c.statLocal[counter] += delta
		return
	}
	if c.s.lockedStats {
		lock := c.s.cfg + cfgStatsLock
		off := c.s.stats + uint64(counter)*8
		c.lock(lock)
		c.s.H.Store64(off, c.s.H.Load64(off)+uint64(delta))
		c.unlock(lock)
		return
	}
	off := c.s.stats + c.slot*statSlotSize + uint64(counter)*8
	c.s.H.Add64(off, uint64(delta))
}

// statFlushDeferred ends a deferred-accounting window: every locally
// accumulated counter is published to the shared slot with one atomic add.
// A batch of k hits pays ~3 adds total instead of ~3k.
func (c *Ctx) statFlushDeferred() {
	c.statDefer = false
	for i := range c.statLocal {
		if d := c.statLocal[i]; d != 0 {
			c.statLocal[i] = 0
			c.stat(i, d)
		}
	}
}

// Stats sums the scattered array (the statistics-retrieving scan).
func (s *Store) Stats() Stats {
	var sums [numStatCounters]int64
	for slot := uint64(0); slot < s.statSlots; slot++ {
		base := s.stats + slot*statSlotSize
		for ctr := 0; ctr < numStatCounters; ctr++ {
			sums[ctr] += int64(s.H.AtomicLoad64(base + uint64(ctr)*8))
		}
	}
	u := func(i int) uint64 {
		if sums[i] < 0 {
			return 0
		}
		return uint64(sums[i])
	}
	gets := u(statGetHits) + u(statGetMisses)
	locked := u(statGetLocked) + u(statGetsBase) - min(u(statGetFastpathBase), u(statGetsBase))
	return Stats{
		Gets: gets, GetHits: u(statGetHits), GetMisses: u(statGetMisses),
		Sets: u(statSets), Deletes: u(statDeletes), DeleteHits: u(statDeleteHits),
		Incrs: u(statIncrs), Decrs: u(statDecrs), Touches: u(statTouches),
		Evictions: u(statEvictions), Expired: u(statExpired), CASMismatch: u(statCASMismatch),
		CurrItems: u(statCurrItems), TotalItems: u(statTotalItems), Bytes: u(statBytes),
		Flushes:         u(statFlushes),
		GetFastpathHits: gets - min(locked, gets), SeqlockRetries: u(statSeqRetries),
		Recoveries: u(statRecoveries), ItemsDroppedInRepair: u(statRepairDropped),
		CorruptionsDetected: u(statCorruptDetected), ItemsQuarantined: u(statItemsQuarantined),
		Batches: u(statBatches), BatchedOps: u(statBatchedOps),
	}
}
