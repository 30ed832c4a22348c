package core

import (
	"fmt"

	"plibmc/internal/ralloc"
	"plibmc/internal/ring"
	"plibmc/internal/shm"
)

// Online crash repair.
//
// A client thread that dies inside a library call can leave the store in
// any intermediate state its operation passes through: bucket locks held,
// stripe seqlocks odd, an item unlinked from the table but still on an
// LRU list, a half-migrated hash-table expansion, reader epochs announced
// and never retired. Instead of declaring the store permanently poisoned,
// the repair coordinator (memcached.Bookkeeper) quarantines the store and
// drives the passes in this file:
//
//  1. RetireDeadReaders / ForceReleaseDeadLocks break the dead threads'
//     announcements and locks, identified by the owner tokens every lock
//     word and reader slot records;
//  2. once every live call has drained, RepairGate clears the operation
//     gate of counts the dead threads will never release;
//  3. Repair rebuilds the structures wholesale: items are harvested from
//     the (possibly torn) bucket chains of both tables with strict
//     validation, orphans and the quarantine list are freed, any
//     in-flight expansion is aborted, and the hash table, LRU lists and
//     item-count statistics are reconstructed from the survivors.
//
// Everything here assumes the caller has exclusive access to the store:
// no live thread is executing an operation and none can start one.

// SetOwnerLiveness installs the oracle that maps a lock-owner token to
// whether its thread can still execute library code. The oracle must be
// precise in one direction: it may only report an owner dead when that
// thread can never again touch the heap (its process was killed and the
// run-to-completion window has closed). Reporting a live thread dead
// breaks the locking protocol; reporting a dead thread alive merely
// delays reclamation. Install before the store serves concurrent
// operations; with no oracle installed nothing is ever presumed dead.
func (s *Store) SetOwnerLiveness(alive func(owner uint64) bool) { s.aliveFn.Store(&alive) }

// ownerIsDead consults the installed liveness oracle.
func (s *Store) ownerIsDead(owner uint64) bool {
	fn := s.aliveFn.Load()
	return owner != 0 && fn != nil && !(*fn)(owner)
}

// RetireDeadReaders expires the optimistic-reader announcements of dead
// owners: any odd epoch is bumped to even (a dead reader cannot be inside
// a section) and the slot is released for reuse. Returns the number of
// slots retired.
func (s *Store) RetireDeadReaders(dead func(owner uint64) bool) int {
	n := 0
	for i := uint64(0); i < s.numReaders; i++ {
		slot := s.readerSlotOff(i)
		owner := s.H.AtomicLoad64(slot + readerSlotOwner)
		if owner == 0 || !dead(owner) {
			continue
		}
		if e := s.H.AtomicLoad64(slot + readerSlotEpoch); e&1 != 0 {
			s.H.CAS64(slot+readerSlotEpoch, e, e+1)
		}
		if s.H.CAS64(slot+readerSlotOwner, owner, 0) {
			n++
		}
	}
	return n
}

// ForceReleaseDeadLocks breaks every heap-resident lock whose recorded
// owner the oracle reports dead: bucket locks, LRU locks, and the stats
// lock. The release is a CAS against the observed owner, so a lock that
// was meanwhile released and re-acquired by a live thread is untouched.
// Returns the number of locks broken.
func (s *Store) ForceReleaseDeadLocks(dead func(owner uint64) bool) int {
	n := 0
	release := func(off uint64) {
		owner := s.H.LockHolder(off)
		if owner != 0 && dead(owner) && s.H.CAS64(off, owner, 0) {
			n++
		}
	}
	for i := uint64(0); i < s.numItemLocks; i++ {
		release(s.itemLocks + i*shm.LockWordSize)
	}
	for i := uint64(0); i < s.numLRUs; i++ {
		release(s.lruLocks + i*shm.LockWordSize)
	}
	release(s.cfg + cfgStatsLock)
	return n
}

// HeldLock describes one held heap-resident lock (post-mortem triage and
// the plibdump -locks view).
type HeldLock struct {
	Kind  string // "item", "lru", or "stats"
	Index uint64 // stripe / list index within its array
	Owner uint64 // owner token: PID<<20 | TID+1
}

// HeldLocks enumerates every currently held store lock with its recorded
// owner token.
func (s *Store) HeldLocks() []HeldLock {
	var held []HeldLock
	for i := uint64(0); i < s.numItemLocks; i++ {
		if o := s.H.LockHolder(s.itemLocks + i*shm.LockWordSize); o != 0 {
			held = append(held, HeldLock{Kind: "item", Index: i, Owner: o})
		}
	}
	for i := uint64(0); i < s.numLRUs; i++ {
		if o := s.H.LockHolder(s.lruLocks + i*shm.LockWordSize); o != 0 {
			held = append(held, HeldLock{Kind: "lru", Index: i, Owner: o})
		}
	}
	if o := s.H.LockHolder(s.cfg + cfgStatsLock); o != 0 {
		held = append(held, HeldLock{Kind: "stats", Index: 0, Owner: o})
	}
	return held
}

// InFlightOps reads the operation gate: the number of operations counted
// in flight, in the gate word and in the reader slots, and whether a
// checkpoint barrier is raised.
func (s *Store) InFlightOps() (count uint64, barrier bool) {
	return s.inFlight(), s.H.AtomicLoad64(s.cfg+cfgGate)&gateBarrier != 0
}

// RepairGate clears every operation the gate counts — the gate word's
// count and barrier, and each reader slot's op word — and bumps the gate
// word's generation. After a crash the gate can hold operations entered by
// threads that died before their exitOp (the watchdog gave up on them
// mid-call); with every live call drained those are unreclaimable and
// would stall the next Quiesce forever. Neither kind of late exitOp can
// then consume a live count (see gate.go): a counted one carries a stale
// generation, a slot one CASes from its own token, which the cleared word
// — or a reclaiming context's token — no longer holds. Unlike ResetGate
// this leaves slot ownership and read sections alone. Call only from a
// repair pass that has drained live calls.
func (s *Store) RepairGate() {
	gate := s.cfg + cfgGate
	for {
		g := s.H.AtomicLoad64(gate)
		next := (g + uint64(1)<<gateGenShift) & gateGenMask
		if s.H.CAS64(gate, g, next) {
			break
		}
	}
	for i := uint64(0); i < s.numReaders; i++ {
		s.H.AtomicStore64(s.readerSlotOff(i)+readerSlotOp, 0)
	}
}

// RepairReport summarizes one structural repair pass.
type RepairReport struct {
	LocksBroken     int  // dead-owner locks force-released by the coordinator
	ReadersRetired  int  // dead-owner reader slots expired
	SeqlocksCleared int  // stripe seqlocks left odd by a dead writer
	ExpandAborted   bool // an in-flight table expansion was discarded
	ItemsKept       int  // items harvested and re-linked
	ItemsDropped    int  // orphaned/torn items freed during repair
	GraveFreed      int  // quarantined blocks freed
	BytesKept       uint64
	// HistogramsRepaired counts latency histograms whose total/Σcounts
	// invariant was torn by a thread that died mid-record.
	HistogramsRepaired int
	// ValueSumsRestamped counts kept items whose value checksum did not
	// match their bytes — the signature of a thread that died inside an
	// in-place value rewrite. Repair trusts the (seqlock-protected) bytes
	// and re-stamps the checksum; media corruption, by contrast, is caught
	// by the scrubber while the checksum is intact.
	ValueSumsRestamped int
}

// maxRepairChain bounds every chain walk during repair: a torn or
// cross-linked chain must not put the repairer into an unbounded loop.
const maxRepairChain = 1 << 16

// validItem reports whether it plausibly points at a live, intact item:
// the offset must be the base of a live allocator block large enough for
// the declared key/value, the refcount must be nonzero (quarantined items
// are not live), and the stored hash must match a recomputation from the
// stored key — which makes a stale or torn pointer into recycled memory
// overwhelmingly likely to be rejected.
func (c *Ctx) validItem(it uint64) bool {
	s := c.s
	if it == 0 || it&7 != 0 {
		return false
	}
	blk := s.A.BlockAt(it)
	if blk < itHeader {
		return false
	}
	klen := uint64(s.H.Load32(it + itKeyLen))
	vlen := uint64(s.H.Load32(it + itValLen))
	if klen == 0 || klen > MaxKeyLen || vlen > MaxValueLen {
		return false
	}
	if itemSize(klen, vlen) > blk {
		return false
	}
	if rc := s.H.AtomicLoad64(it + itRefcount); rc == 0 || rc > 1<<32 {
		return false
	}
	if s.H.Load64(it+itCheck) != itemCheckOf(s.H.Load64(it+itHash), uint32(klen), uint32(vlen), s.H.Load32(it+itFlags)) {
		return false
	}
	key := grow(&c.keyBuf, klen)
	s.H.ReadBytes(it+itHeader, key)
	return ring.Hash(key) == s.H.Load64(it+itHash)
}

// Repair rebuilds the store's structures from whatever survived a crash.
// The caller must have exclusive access: dead locks broken, live calls
// drained, gate cleared. The context is only used for its allocator cache
// and scratch buffers.
//
// Survivors are harvested from the bucket chains of both tables (walks
// stop at the first implausible pointer, so a torn chain contributes its
// intact prefix); items found only on LRU lists are orphans of a crashed
// unlink and are freed, as is the whole quarantine list. Any in-flight
// expansion is abandoned and the harvest is re-linked into the current
// table. LRU recency order does not survive — lists are rebuilt in
// harvest order — and per-item pins do not survive: every kept item
// restarts at refcount 1 (the link reference), which is correct because
// no live thread holds a pin across operations.
func (s *Store) Repair(c *Ctx) (RepairReport, error) {
	var r RepairReport
	h := s.H

	// 1. A writer that died inside a seqlock write section left the
	// stripe odd, which would make every future optimistic read spin and
	// fail; with no writer alive, bump each odd word to even.
	for li := uint64(0); li < s.numItemLocks; li++ {
		seq := s.seqLocks + li*8
		if v := h.AtomicLoad64(seq); v&1 != 0 {
			h.AtomicStore64(seq, v+1)
			r.SeqlocksCleared++
		}
	}

	// 2. Harvest surviving items from every chain of both tables.
	newT, newMask, oldT, oldMask, _, expanding := s.tables()
	if s.A.BlockAt(newT) == 0 {
		return r, fmt.Errorf("core: repair: hash table pointer %#x is not a live block", newT)
	}
	kept := make(map[uint64]bool)
	keptKeys := make(map[string]bool)
	var order []uint64
	harvest := func(table, mask uint64) {
		for b := uint64(0); b <= mask; b++ {
			it := loadChainHead(s, table+b*8)
			for steps := 0; it != 0 && steps < maxRepairChain; steps++ {
				if !c.validItem(it) {
					break // torn link: keep the intact prefix
				}
				if kept[it] {
					break // chains cross-linked by a torn expansion
				}
				// A crash inside swapLocked's write section can leave both
				// the replacement and the replaced item chained. Writers
				// publish at the head, so the first copy of a key the walk
				// meets is the newest; shadowed duplicates must not be
				// resurrected (the old item would come back under its old
				// CAS generation). They are freed by the LRU-orphan pass
				// below, which they still sit on.
				klen := uint64(s.H.Load32(it + itKeyLen))
				kb := grow(&c.keyBuf, klen)
				h.ReadBytes(it+itHeader, kb)
				k := string(kb)
				if keptKeys[k] {
					it = loadChainNext(s, it)
					continue
				}
				kept[it] = true
				keptKeys[k] = true
				order = append(order, it)
				it = loadChainNext(s, it)
			}
		}
	}
	harvest(newT, newMask)
	if expanding {
		harvest(oldT, oldMask)
	}

	// 3. Items reachable only from an LRU list are orphans of a crashed
	// unlink (out of the table, reference never dropped): free them.
	freed := make(map[uint64]bool)
	for idx := uint64(0); idx < s.numLRUs; idx++ {
		it := ralloc.LoadPptr(h, s.lruHeadOff(idx))
		for steps := 0; it != 0 && steps < maxRepairChain; steps++ {
			if freed[it] || !c.validItem(it) {
				break
			}
			next := ralloc.LoadPptr(h, it+itLRUNext)
			if !kept[it] {
				freed[it] = true
				if err := c.cache.Free(it); err != nil {
					return r, fmt.Errorf("core: repair: freeing LRU orphan %#x: %w", it, err)
				}
				r.ItemsDropped++
			}
			it = next
		}
	}

	// 4. Free the quarantine outright: with no live reader (sections of
	// dead readers were expired) nothing can hold a stale reference.
	grave := h.Swap64(s.cfg+cfgGraveHead, 0)
	for it := grave; it != 0; {
		if s.A.BlockAt(it) == 0 {
			break // torn grave link: the rest of the list leaks
		}
		next := h.AtomicLoad64(it + graveNext)
		if err := c.cache.Free(it); err != nil {
			break
		}
		r.GraveFreed++
		it = next
	}
	h.AtomicStore64(s.cfg+cfgGraveLen, 0)

	// 5. Abandon any in-flight expansion; the harvest is re-linked into
	// the current (larger) table, so the old array is just garbage now.
	if expanding {
		ralloc.AtomicStorePptr(h, s.htStorage+htOldTable, 0)
		h.AtomicStore64(s.htStorage+htOldPower, 0)
		h.AtomicStore64(s.htStorage+htExpandCursor, 0)
		if s.A.BlockAt(oldT) != 0 {
			_ = c.cache.Free(oldT)
		}
		r.ExpandAborted = true
	}

	// 6. Rebuild the table and LRU lists wholesale from the harvest.
	h.Zero(newT, (newMask+1)*8)
	h.Zero(s.lruData, s.numLRUs*16)
	for _, it := range order {
		hash := s.itemHash(it)
		bucket := newT + (hash&newMask)*8
		ralloc.StorePptr(h, it+itHNext, ralloc.LoadPptr(h, bucket))
		ralloc.StorePptr(h, bucket, it)
		h.Store64(it+itRefcount, 1) // exactly the link reference
		s.setLinked(it, true)
		s.lruInsertHead(s.lruFor(hash), it)
		if sum := s.itemValueSum(it); sum != h.Load64(it+itValSum) {
			h.Store64(it+itValSum, sum)
			r.ValueSumsRestamped++
		}
		r.ItemsKept++
		r.BytesKept += s.A.SizeOf(it)
	}

	// 7. Re-validate the latency-histogram matrix and mend any histogram a
	// dead thread tore mid-record, before the statistics below are trusted.
	var err error
	if r.HistogramsRepaired, err = s.repairLatency(); err != nil {
		return r, err
	}

	// 8. Rebuild the scattered item statistics from the survivors: zero
	// the distributed CurrItems/Bytes deltas everywhere, then write the
	// recomputed totals into slot 0.
	for slot := uint64(0); slot < s.statSlots; slot++ {
		base := s.stats + slot*statSlotSize
		h.Store64(base+statCurrItems*8, 0)
		h.Store64(base+statBytes*8, 0)
	}
	h.Store64(s.stats+statCurrItems*8, uint64(r.ItemsKept))
	h.Store64(s.stats+statBytes*8, r.BytesKept)
	c.stat(statRepairDropped, int64(r.ItemsDropped))
	c.stat(statRecoveries, 1)

	return r, nil
}
