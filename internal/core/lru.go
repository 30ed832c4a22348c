package core

import (
	"plibmc/internal/faultpoint"
	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
)

// Crash-injection sites (see ops.go for the convention).
var (
	fpLinkBeforeLRU   = faultpoint.New("lru.link.before_lru")   // in table, not yet in LRU
	fpUnlinkBeforeLRU = faultpoint.New("lru.unlink.before_lru") // out of table, still in LRU
	fpEvictAfterPin   = faultpoint.New("lru.evict.after_pin")   // victim pinned, nothing held
)

// LRU lists.
//
// The original memcached keeps one LRU list per slab class. Having replaced
// the slab allocator with Ralloc, the paper decouples eviction order from
// allocation size: items are scattered over a set of doubly linked lists
// chosen by key hash, each with its own heap-resident lock, because a
// single list "caused unacceptable lock contention at high thread counts."
// The bookkeeping process (and, as a fallback, any thread that exhausts
// memory) evicts from the tails.

// lruBumpInterval matches memcached's ITEM_UPDATE_INTERVAL: an item is
// moved to the head of its list at most once per interval, which keeps
// read-heavy workloads from serializing on the LRU locks.
const lruBumpInterval = 60

func (s *Store) lruFor(h uint64) uint64 { return (h >> 32) % s.numLRUs }

func (s *Store) lruLockOff(idx uint64) uint64 { return s.lruLocks + idx*shm.LockWordSize }
func (s *Store) lruHeadOff(idx uint64) uint64 { return s.lruData + idx*16 }
func (s *Store) lruTailOff(idx uint64) uint64 { return s.lruData + idx*16 + 8 }

// lruInsertHead links it at the head of list idx. Caller holds the list
// lock. The stale-head check keeps a corrupted head pointer from letting
// the insert scribble a back-link through arbitrary heap memory: a real
// head's lruPrev is always zero.
func (s *Store) lruInsertHead(idx, it uint64) {
	h := s.H
	head := ralloc.LoadPptr(h, s.lruHeadOff(idx))
	if head != 0 && (head&7 != 0 || ralloc.LoadPptr(h, head+itLRUPrev) != 0) {
		panic("core: corrupt LRU head (insert)")
	}
	ralloc.StorePptr(h, it+itLRUPrev, 0)
	ralloc.StorePptr(h, it+itLRUNext, head)
	if head != 0 {
		ralloc.StorePptr(h, head+itLRUPrev, it)
	} else {
		ralloc.StorePptr(h, s.lruTailOff(idx), it)
	}
	ralloc.StorePptr(h, s.lruHeadOff(idx), it)
}

// lruRemove unlinks it from list idx. Caller holds the list lock.
//
// Each neighbor is grounded before the splice writes through it: a nonzero
// prev/next must be word-aligned and its back-link must point at it, and a
// boundary item must actually be the list's head/tail. A corrupted link
// therefore panics (unwound by hodor into a full structural repair, which
// rebuilds every list) instead of silently scribbling on whatever word the
// corrupt pointer addresses — the containment rule the corruption matrix
// enforces for the LRU-link class.
func (s *Store) lruRemove(idx, it uint64) {
	h := s.H
	prev := ralloc.LoadPptr(h, it+itLRUPrev)
	next := ralloc.LoadPptr(h, it+itLRUNext)
	if prev != 0 && (prev&7 != 0 || ralloc.LoadPptr(h, prev+itLRUNext) != it) {
		panic("core: corrupt LRU prev link")
	}
	if next != 0 && (next&7 != 0 || ralloc.LoadPptr(h, next+itLRUPrev) != it) {
		panic("core: corrupt LRU next link")
	}
	if prev == 0 && ralloc.LoadPptr(h, s.lruHeadOff(idx)) != it {
		panic("core: item not at LRU head it claims")
	}
	if next == 0 && ralloc.LoadPptr(h, s.lruTailOff(idx)) != it {
		panic("core: item not at LRU tail it claims")
	}
	if prev != 0 {
		ralloc.StorePptr(h, prev+itLRUNext, next)
	} else {
		ralloc.StorePptr(h, s.lruHeadOff(idx), next)
	}
	if next != 0 {
		ralloc.StorePptr(h, next+itLRUPrev, prev)
	} else {
		ralloc.StorePptr(h, s.lruTailOff(idx), prev)
	}
	ralloc.StorePptr(h, it+itLRUPrev, 0)
	ralloc.StorePptr(h, it+itLRUNext, 0)
}

// lruLink inserts it into its hash-selected list, taking the list lock.
func (c *Ctx) lruLink(hash, it uint64) {
	idx := c.s.lruFor(hash)
	c.lock(c.s.lruLockOff(idx))
	c.s.lruInsertHead(idx, it)
	c.unlock(c.s.lruLockOff(idx))
}

// lruUnlink removes it from its list, taking the list lock. Lock order is
// item lock → LRU lock, so this is safe under a held item lock.
func (c *Ctx) lruUnlink(hash, it uint64) {
	idx := c.s.lruFor(hash)
	c.lock(c.s.lruLockOff(idx))
	c.s.lruRemove(idx, it)
	c.unlock(c.s.lruLockOff(idx))
}

// lruBump moves a touched item to the head of its list if it has not been
// bumped recently. Caller holds the item lock. lastAccess uses relaxed
// accesses because lock-free readers consult it to decide whether a bump
// is due (and fall back to this path when it is — which is what keeps the
// bump entirely off the optimistic fast path for the other 60 seconds).
func (c *Ctx) lruBump(hash, it uint64, now int64) {
	if uint64(now)-c.s.H.RelaxedLoad64(it+itLastAccess) < lruBumpInterval {
		return
	}
	c.s.H.RelaxedStore64(it+itLastAccess, uint64(now))
	idx := c.s.lruFor(hash)
	c.lock(c.s.lruLockOff(idx))
	if c.s.isLinked(it) {
		c.s.lruRemove(idx, it)
		c.s.lruInsertHead(idx, it)
	}
	c.unlock(c.s.lruLockOff(idx))
}

// evictSome removes up to n least-recently-used items from the store and
// returns how many it evicted. It never blocks on an item lock (trylock
// only), so it is safe to call while holding one.
func (c *Ctx) evictSome(n int) int {
	evicted := 0
	s := c.s
	for sweep := uint64(0); sweep < s.numLRUs && evicted < n; sweep++ {
		idx := (c.evictCursor + sweep) % s.numLRUs
		for evicted < n {
			if !c.evictTailOf(idx) {
				break
			}
			evicted++
		}
	}
	c.evictCursor++
	return evicted
}

// evictTailOf tries to evict the tail of LRU list idx, reporting success.
func (c *Ctx) evictTailOf(idx uint64) bool {
	s := c.s
	lockOff := s.lruLockOff(idx)
	if !c.tryLock(lockOff) {
		return false
	}
	victim := ralloc.LoadPptr(s.H, s.lruTailOff(idx))
	if victim == 0 {
		c.unlock(lockOff)
		return false
	}
	s.incref(victim) // pin: the victim cannot be freed under us
	c.unlock(lockOff)
	fpEvictAfterPin.Maybe()

	// The hash was fixed at allocation; no key read or rehash needed.
	hash := s.itemHash(victim)

	ok := false
	itemLock := s.itemLockOff(hash)
	if c.tryLock(itemLock) {
		if s.isLinked(victim) {
			c.unlinkLocked(victim, hash)
			c.stat(statEvictions, 1)
			ok = true
		}
		c.unlock(itemLock)
	}
	c.decref(victim)
	return ok
}

// linkLocked inserts a fully built item into the table and LRU. Caller
// holds the item lock for hash. The chain mutation is bracketed by the
// stripe seqlock and the publishing bucket store is atomic, so lock-free
// readers either miss the item cleanly or see it fully initialized (its
// hNext store is pre-publication and ordered by the bucket store).
func (c *Ctx) linkLocked(it, hash uint64) {
	s := c.s
	bucket := s.bucketFor(hash)
	seq := s.seqOff(hash)
	s.H.SeqWriteBegin(seq)
	setChainNext(s, it, loadChainHead(s, bucket))
	ralloc.AtomicStorePptr(s.H, bucket, it)
	s.H.SeqWriteEnd(seq)
	s.setLinked(it, true)
	fpLinkBeforeLRU.Maybe()
	c.lruLink(hash, it)
	c.stat(statCurrItems, 1)
	c.stat(statTotalItems, 1)
	c.stat(statBytes, int64(s.A.SizeOf(it)))
}

// unlinkLocked removes a linked item from the table and LRU and drops the
// link reference. Caller holds the item lock for hash. The splice is an
// atomic store under the stripe seqlock; the unlinked item keeps its own
// (now stale) hNext so a reader standing on it walks into the live chain
// and fails validation rather than dereferencing garbage.
func (c *Ctx) unlinkLocked(it, hash uint64) {
	s := c.s
	bucket := s.bucketFor(hash)
	prevAddr, cur := s.chainPred(bucket, it)
	seq := s.seqOff(hash)
	s.H.SeqWriteBegin(seq)
	if cur == it {
		ralloc.AtomicStorePptr(s.H, prevAddr, ralloc.LoadPptr(s.H, it+itHNext))
	}
	s.H.SeqWriteEnd(seq)
	s.setLinked(it, false)
	fpUnlinkBeforeLRU.Maybe()
	c.lruUnlink(hash, it)
	c.stat(statCurrItems, -1)
	c.stat(statBytes, -int64(s.A.SizeOf(it)))
	c.decref(it) // the link reference
}

// swapLocked replaces old with nit in the bucket chain inside ONE
// seqlock write section. Caller holds the item lock for hash.
//
// It exists because unlinkLocked+linkLocked each bracket their own
// section, and between the two the stripe is quiescent with the key in
// neither — a lock-free reader scanning that gap validates cleanly and
// reports a definitive miss for a key that was never deleted. Every
// replacement of an existing item (Set/Replace/CAS over a live key,
// append/prepend, width-changing incr/decr) must come through here; the
// unlink/link pair remains correct only where absence is the intended
// observable state (Delete, eviction, fresh inserts).
//
// Inside the section the new item is published at the chain head before
// the old one is spliced out, so a crash mid-swap leaves at worst both
// chained; repair keeps the head-most (newest) copy per key and frees
// the shadowed one as an LRU orphan.
func (c *Ctx) swapLocked(old, nit, hash uint64) {
	s := c.s
	bucket := s.bucketFor(hash)
	// Locate old's predecessor before opening the write section; the walk
	// only reads, and the item lock fences out competing writers.
	prevAddr, cur := s.chainPred(bucket, old)
	seq := s.seqOff(hash)
	s.H.SeqWriteBegin(seq)
	setChainNext(s, nit, loadChainHead(s, bucket))
	ralloc.AtomicStorePptr(s.H, bucket, nit)
	fpStoreMidSwap.Maybe()
	if cur == old {
		if prevAddr == bucket {
			// old was the head; the new item now precedes it.
			prevAddr = nit + itHNext
		}
		ralloc.AtomicStorePptr(s.H, prevAddr, ralloc.LoadPptr(s.H, old+itHNext))
	}
	s.H.SeqWriteEnd(seq)
	s.setLinked(nit, true)
	s.setLinked(old, false)
	c.lruUnlink(hash, old)
	c.lruLink(hash, nit)
	c.stat(statTotalItems, 1)
	c.stat(statBytes, int64(s.A.SizeOf(nit))-int64(s.A.SizeOf(old)))
	c.decref(old) // the link reference
}
