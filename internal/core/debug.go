package core

// Targeting surface for corruption-injection tests and offline tooling.
// These expose heap offsets of live structures so internal/corrupt can
// flip bits in a specific item header, chain link, LRU word or stats slot.
// Nothing here is part of the operation API.

import "plibmc/internal/ring"

// Exported item-field offsets (relative to an item's base offset).
const (
	DebugItemHNext   = itHNext
	DebugItemLRUNext = itLRUNext
	DebugItemCheck   = itCheck
)

// DebugStatCurrItems is the counter index of CurrItems within a stats slot
// (each counter is one word).
const DebugStatCurrItems = statCurrItems

// DebugItemOffset returns the heap offset of the item currently linked
// under key, or 0. It walks without verification or side effects, so a
// test can locate an item it is about to corrupt (or just corrupted).
func (c *Ctx) DebugItemOffset(key []byte) uint64 {
	k := append([]byte(nil), key...)
	hash := ring.Hash(k)
	lock := c.s.itemLockOff(hash)
	c.lock(lock)
	defer c.unlock(lock)
	it := loadChainHead(c.s, c.s.bucketFor(hash))
	for steps := 0; it != 0 && steps < maxRepairChain; steps++ {
		if c.s.keyEqual(it, k) {
			return it
		}
		it = loadChainNext(c.s, it)
	}
	return 0
}

// DebugValOff returns the heap offset of an item's value bytes.
func (s *Store) DebugValOff(it uint64) uint64 { return s.itemValOff(it) }

// DebugStatsSlotOff returns the heap offset of scattered-stats slot i.
func (s *Store) DebugStatsSlotOff(i uint64) uint64 { return s.stats + i*statSlotSize }
