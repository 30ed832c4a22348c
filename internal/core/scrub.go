package core

import (
	"fmt"

	"plibmc/internal/ralloc"
	"plibmc/internal/ring"
)

// Corruption containment.
//
// The fault matrix covers threads dying at bad instants; this file covers
// bytes that are simply wrong — a bit flipped by failing memory, a word
// scribbled by a misbehaving sharer that slipped past the protection keys,
// an image region that decayed on disk and was force-attached anyway. The
// policy has three tiers:
//
//   1. The read paths verify each matched item's header checksum before
//      trusting its geometry; a failure quarantines just that item.
//   2. The maintenance-pass scrubber walks a few lock stripes per pass and
//      deep-verifies every item (header checksum, hash↔key agreement,
//      value checksum), truncating implausible chain links and
//      quarantining items that fail.
//   3. Anything that cannot be contained to one item — a torn LRU list, a
//      cyclic chain — panics, which hodor unwinds into the PR 2 full
//      structural repair. Salvage over poisoning, but never silent.
//
// A quarantined item is spliced out of its chain and LRU list and pushed
// through the grave exactly like a deleted item, so concurrent optimistic
// readers standing on it keep finding type-stable memory.

// quarantineCorruptLocked removes a corrupt item from service. The caller
// holds the stripe item lock covering bucket (and has already decided the
// item fails verification). seqOff is that stripe's seqlock.
//
// Every pointer is validated before the splice dereferences it: the item's
// own hNext is only followed if it is plausible (otherwise the chain is
// truncated at the quarantined item), and LRU removal uses the hardened
// lruRemove, which escalates to a panic — and thus full repair — rather
// than splice through a corrupt link.
func (c *Ctx) quarantineCorruptLocked(it, bucket, seqOff uint64) {
	s := c.s
	c.stat(statCorruptDetected, 1)

	// Find the predecessor link (bounded; the chain may be damaged).
	prevAddr, cur := s.chainPred(bucket, it)
	next := uint64(0)
	if cur == it {
		next = loadChainNext(s, it)
		if next != 0 && (next&7 != 0 || next+itHeader > s.H.Size() || s.A.BlockAt(next) < itHeader) {
			next = 0 // successor is garbage too: truncate the chain here
		}
	}
	s.H.SeqWriteBegin(seqOff)
	if cur == it {
		ralloc.AtomicStorePptr(s.H, prevAddr, next)
	}
	s.H.SeqWriteEnd(seqOff)

	if s.A.BlockAt(it) < itHeader {
		// Not even a live block: the chain pointer itself was the
		// corruption. Splicing it out was all that could safely be done.
		return
	}
	// The item's stored hash selected its LRU list at link time. If the
	// hash field itself is what got corrupted this may name the wrong
	// list — in which case lruRemove's back-link and head/tail grounding
	// either still splices correctly (interior items link to their true
	// neighbors) or panics into a full repair.
	c.lruUnlink(s.itemHash(it), it)
	s.setLinked(it, false)
	c.stat(statCurrItems, -1)
	c.stat(statBytes, -int64(s.A.SizeOf(it)))
	c.stat(statItemsQuarantined, 1)
	c.decref(it)
}

// deepVerifyLocked fully verifies one item under its stripe lock (which
// makes the value bytes stable: in-place rewrites hold the same lock).
// Returns "" if the item is intact, else a short reason.
func (c *Ctx) deepVerifyLocked(it uint64) string {
	s := c.s
	if !s.itemCheckValid(it) {
		return "header checksum mismatch"
	}
	klen := s.itemKeyLen(it)
	vlen := s.itemValLen(it)
	if blk := s.A.BlockAt(it); itemSize(klen, vlen) > blk {
		return "declared size exceeds block"
	}
	key := grow(&c.keyBuf, klen)
	s.H.ReadBytes(it+itHeader, key)
	if ring.Hash(key) != s.H.Load64(it+itHash) {
		return "stored hash does not match key"
	}
	if s.itemValueSum(it) != s.H.Load64(it+itValSum) {
		return "value checksum mismatch"
	}
	return ""
}

// scrubStripe deep-verifies every item chained under lock stripe li,
// quarantining failures and truncating implausible links. Returns items
// scanned and corruptions found.
func (c *Ctx) scrubStripe(li uint64) (scanned, corrupt int) {
	s := c.s
	lock := s.itemLocks + li*8
	c.lock(lock)
	defer c.unlock(lock)
	seqOff := s.seqLocks + li*8
	size := s.H.Size()
	s.forEachBucketLocked(li, func(bucket uint64) {
		prevAddr := bucket
		it := ralloc.LoadPptr(s.H, bucket)
		for steps := 0; it != 0; steps++ {
			if steps >= maxRepairChain {
				panic("core: bucket chain cycle (corruption)")
			}
			if it&7 != 0 || it+itHeader > size || s.A.BlockAt(it) < itHeader {
				// The link itself is garbage: truncate the chain at its
				// predecessor. Items beyond the tear stay allocated until
				// eviction or repair finds them through the LRU.
				c.stat(statCorruptDetected, 1)
				s.H.SeqWriteBegin(seqOff)
				ralloc.AtomicStorePptr(s.H, prevAddr, 0)
				s.H.SeqWriteEnd(seqOff)
				corrupt++
				break
			}
			next := loadChainNext(s, it)
			scanned++
			if reason := c.deepVerifyLocked(it); reason != "" {
				c.quarantineCorruptLocked(it, bucket, seqOff)
				corrupt++
			} else {
				prevAddr = it + itHNext
			}
			it = next
		}
	})
	return scanned, corrupt
}

// ScrubChains runs the scrubber over n lock stripes starting at *cursor,
// advancing the cursor (it wraps). The maintainer calls this each pass so
// the whole table is deep-verified every numItemLocks/n passes.
func (c *Ctx) ScrubChains(cursor *uint64, n int) (scanned, corrupt int) {
	c.enterOp()
	defer c.exitOp()
	s := c.s
	for i := 0; i < n; i++ {
		sc, co := c.scrubStripe(*cursor % s.numItemLocks)
		*cursor++
		scanned += sc
		corrupt += co
	}
	return scanned, corrupt
}

// AuditFault describes one item that failed an offline audit.
type AuditFault struct {
	Off    uint64 // item heap offset
	Key    string // best-effort key bytes (may be garbage on a torn header)
	Reason string
}

func (f AuditFault) String() string {
	return fmt.Sprintf("item %#x (key %q): %s", f.Off, f.Key, f.Reason)
}

// AuditItems deep-verifies every chained item without mutating anything —
// the offline form of the scrubber, for plibdump -verify. Returns the
// number of items scanned and a description of every failure (capped at
// max; 0 means unlimited). The caller must hold the store quiescent (an
// offline attach qualifies).
func (c *Ctx) AuditItems(max int) (scanned int, faults []AuditFault) {
	c.enterOp()
	defer c.exitOp()
	s := c.s
	size := s.H.Size()
	record := func(off uint64, reason string) {
		if max > 0 && len(faults) >= max {
			return
		}
		var key string
		if s.A.BlockAt(off) >= itHeader {
			klen := s.itemKeyLen(off)
			if klen > 0 && klen <= MaxKeyLen && off+itHeader+klen <= size {
				key = string(s.H.Bytes(off+itHeader, klen))
			}
		}
		faults = append(faults, AuditFault{Off: off, Key: key, Reason: reason})
	}
	for li := uint64(0); li < s.numItemLocks; li++ {
		lock := s.itemLocks + li*8
		c.lock(lock)
		s.forEachBucketLocked(li, func(bucket uint64) {
			it := ralloc.LoadPptr(s.H, bucket)
			for steps := 0; it != 0; steps++ {
				if steps >= maxRepairChain {
					record(bucket, "bucket chain cycle")
					break
				}
				if it&7 != 0 || it+itHeader > size || s.A.BlockAt(it) < itHeader {
					record(it, "implausible chain link")
					break
				}
				scanned++
				if reason := c.deepVerifyLocked(it); reason != "" {
					record(it, reason)
				}
				it = loadChainNext(s, it)
			}
		})
		c.unlock(lock)
	}
	return scanned, faults
}
