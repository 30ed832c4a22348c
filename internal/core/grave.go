package core

import "runtime"

// Safe memory reclamation for the lock-free read path.
//
// An optimistic reader walks bucket chains without any lock, so it can
// hold an item offset after a concurrent writer has unlinked the item and
// dropped the last reference. Seqlock validation rejects the *values* such
// a reader produces, but the reader still loads through the offset — the
// next chain link, the key it compares, the length that bounds its copy —
// and if the memory were freed and handed to another structure at that
// instant, those loads would read words the allocator or a new owner is
// writing. A reader writes nothing to an item (seqread.go), so what the
// grave protects is exactly this: every block reachable from an announced
// read section keeps its bytes, and stays an item, until that section
// closes.
//
// The fix is a quarantine. Items whose refcount drops to zero are not
// freed; they are pushed (lock-free, Treiber style) onto a heap-resident
// "grave" list, linked through their now-unused lruNext word with raw heap
// offsets. Quarantined items keep their bytes: a late reader that reaches
// one sees a well-formed item, and the seqlock — bumped by the unlink that
// preceded the push — discards whatever it copied.
//
// Reapers free the quarantine in batches. Each optimistic reader owns one
// announcement slot in a shared array: an epoch word it bumps to odd on
// entering a read section and to even on leaving (both seq-cst stores). A
// reaper atomically steals the whole grave list, then, for every slot
// whose epoch it observes odd, waits until the epoch *changes* — one
// transition proves the section that might hold stolen items has exited.
// Readers that start sections after the steal cannot reach stolen items:
// every stolen item was unlinked (an atomic chain store) before it was
// pushed, which happened before the steal, so a chain walk that begins
// after the steal — its entry store and loads are seq-cst too — reads the
// post-unlink chains. After the slot scan the reaper frees the batch into
// its own allocator cache. Multiple concurrent reapers steal disjoint
// batches and need no further coordination.
//
// Reapers never block readers and readers never wait for reapers, so the
// scheme cannot deadlock — but a Ctx must never trigger a reap from
// inside its own announced read section (it would wait on itself). The
// read path takes no item reference, so nothing it does inside a section
// can push to the grave.

const (
	readerSlotOwner = 0  // CAS-claimed by one Ctx; 0 = free
	readerSlotEpoch = 8  // odd while the owner is inside a read section
	readerSlotOp    = 16 // the owner's token while it has an operation in flight (gate.go)
	// readerSlotSize pads each slot to two cache lines so concurrent
	// readers' announcements do not false-share.
	readerSlotSize = 128
)

// graveNext is the item word that links the quarantine list. lruNext is
// free for reuse: an item reaches the grave only after lruUnlink cleared
// it. The link is a raw heap offset, not a pptr — the list head lives in
// the config block and items move between lists, so self-relative encoding
// buys nothing; 0 terminates (offset 0 is allocator metadata, never an
// item).
const graveNext = itLRUNext

// graveReapThreshold is how many quarantined items accumulate before the
// thread that pushes one also reaps. Maintenance passes reap regardless.
// A variable only so a stress test can reap on every push.
var graveReapThreshold uint64 = 128

func (s *Store) readerSlotOff(i uint64) uint64 {
	return s.readers + i*readerSlotSize
}

// claimReaderSlot finds a free announcement slot for this context and
// scatters its statistics and latency slots by the slot's index. Best
// effort: with every slot taken the context stays valid but never reads
// optimistically.
func (c *Ctx) claimReaderSlot() {
	s := c.s
	for i := uint64(0); i < s.numReaders; i++ {
		slot := s.readerSlotOff(i)
		if s.H.CAS64(slot+readerSlotOwner, 0, c.owner) {
			c.rdSlot = slot
			c.scatter(i)
			return
		}
	}
}

// releaseReaderSlot returns the context's slot. Idempotent.
func (c *Ctx) releaseReaderSlot() {
	if c.rdSlot == 0 {
		return
	}
	c.s.H.AtomicStore64(c.rdSlot+readerSlotOwner, 0)
	c.rdSlot = 0
}

// beginRead announces an optimistic read section (epoch even → odd),
// reporting success. The announcement is guarded like endRead's close: the
// slot must still record this context as owner, and the epoch is advanced
// by CAS from the even value observed — never a blind store. A resumed
// zombie whose expired slot was reclaimed by a new context would otherwise
// overwrite the new owner's odd epoch with an even value (a stale load+1),
// convincing a reaper the live section exited and freeing stolen items
// still being dereferenced. On ownership loss the context abandons the
// slot and tries to claim a fresh one; the caller must serve this read
// through the locked path (or retry) when beginRead reports failure.
func (c *Ctx) beginRead() bool {
	h := c.s.H
	if h.AtomicLoad64(c.rdSlot+readerSlotOwner) != c.owner {
		c.rdSlot = 0 // expired and possibly reclaimed: no longer ours
		c.claimReaderSlot()
		return false
	}
	e := h.AtomicLoad64(c.rdSlot + readerSlotEpoch)
	if e&1 != 0 || !h.CAS64(c.rdSlot+readerSlotEpoch, e, e+1) {
		return false
	}
	c.rdEpoch = e + 1
	return true
}

// endRead closes the section (epoch odd → even). The close is a CAS
// against the epoch this context announced: if a reaper expired the
// announcement in the meantime (it judged this owner dead — e.g. a
// watchdog-reaped zombie thread resuming here), the CAS fails and the
// slot — possibly reclaimed by another context by now — is left alone.
func (c *Ctx) endRead() {
	c.s.H.CAS64(c.rdSlot+readerSlotEpoch, c.rdEpoch, c.rdEpoch+1)
}

// gravePush quarantines an item whose refcount reached zero. Lock-free;
// safe to call under any lock (a triggered reap waits only on reader
// epochs, and readers never block on locks inside a section).
func (c *Ctx) gravePush(it uint64) {
	s := c.s
	h := s.H
	for {
		head := h.AtomicLoad64(s.cfg + cfgGraveHead)
		h.AtomicStore64(it+graveNext, head)
		if h.CAS64(s.cfg+cfgGraveHead, head, it) {
			break
		}
	}
	if h.Add64(s.cfg+cfgGraveLen, 1) >= graveReapThreshold {
		c.reapGrave()
	}
}

// reapGrave steals the current quarantine batch, waits out every announced
// reader section, and frees the batch. Returns how many items it freed.
func (c *Ctx) reapGrave() int {
	s := c.s
	h := s.H
	head := h.Swap64(s.cfg+cfgGraveHead, 0)
	if head == 0 {
		return 0
	}
	n := uint64(0)
	for it := head; it != 0; it = h.AtomicLoad64(it + graveNext) {
		n++
	}
	h.Add64(s.cfg+cfgGraveLen, ^(n - 1)) // subtract n

	for i := uint64(0); i < s.numReaders; i++ {
		slot := s.readerSlotOff(i)
		e := h.AtomicLoad64(slot + readerSlotEpoch)
		if e&1 == 0 {
			continue
		}
		// Any change of the epoch word proves at least one section exit
		// since the steal; sections announced later cannot reach the
		// stolen items (see the file comment).
		//
		// A reader that died inside its section never retires the epoch,
		// which used to stall reapers forever. Announcements are tied to
		// owner tokens, so when a liveness oracle is installed the reaper
		// expires dead owners' announcements itself: a dead thread cannot
		// be dereferencing stolen items.
		for h.AtomicLoad64(slot+readerSlotEpoch) == e {
			if s.expireIfDead(slot, e) {
				break
			}
			runtime.Gosched()
		}
	}

	freed := 0
	for it := head; it != 0; {
		next := h.AtomicLoad64(it + graveNext)
		if err := c.cache.Free(it); err != nil {
			// Freeing a quarantined block can only fail if the heap is
			// corrupt; that is a library crash, exactly as in decref.
			panic(err)
		}
		it = next
		freed++
	}
	return freed
}

// expireIfDead retires the announcement in slot — epoch e, observed odd —
// if the installed liveness oracle reports its owner dead, and frees the
// slot for reuse. Returns true when the epoch word is (or concurrently
// became) no longer e, i.e. the waiter may stop waiting.
func (s *Store) expireIfDead(slot, e uint64) bool {
	owner := s.H.AtomicLoad64(slot + readerSlotOwner)
	if !s.ownerIsDead(owner) {
		return false
	}
	if s.H.CAS64(slot+readerSlotEpoch, e, e+1) {
		s.H.CAS64(slot+readerSlotOwner, owner, 0)
	}
	// Even on CAS failure the epoch changed, which is all the caller needs.
	return true
}

// GraveLen reports how many items are currently quarantined (test and
// stats visibility).
func (s *Store) GraveLen() uint64 {
	return s.H.AtomicLoad64(s.cfg + cfgGraveLen)
}
