package core

import (
	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
)

// Item layout in the shared heap. All pointer fields are pptrs; scalar
// fields are word- or half-word sized. The key is padded to a word boundary
// so the value is word-aligned (fast byte copies).
//
//	+0   hNext      pptr   hash-chain successor
//	+8   lruNext    pptr   LRU successor (toward tail)
//	+16  lruPrev    pptr   LRU predecessor (toward head)
//	+24  refcount   u64    atomic; 1 reference held by the table link
//	+32  casID      u64    compare-and-swap generation
//	+40  exptime    u32    absolute expiry (unix secs; 0 = never)
//	+44  flags      u32    client-supplied opaque flags
//	+48  keyLen     u32
//	+52  valLen     u32
//	+56  lastAccess u64    unix secs of last use (LRU bump threshold)
//	+64  itflags    u64    atomic; bit 0 = linked
//	+72  hash       u64    key hash, fixed at allocation (evictors and
//	                       sweepers unlink without re-reading the key)
//	+80  check      u64    header checksum over the immutable fields
//	                       (hash, keyLen, valLen, flags), fixed at
//	                       allocation; read paths verify it before trusting
//	                       the geometry fields
//	+88  valSum     u64    value checksum (valueSum: CRC-32C of the value
//	                       bytes below its length); maintained by in-place
//	                       rewrites, verified by the scrubber and by repair
//	                       — not on the read path
//	+96  key bytes, padded to 8, then value bytes
const (
	itHNext      = 0
	itLRUNext    = 8
	itLRUPrev    = 16
	itRefcount   = 24
	itCASID      = 32
	itExptime    = 40
	itFlags      = 44
	itKeyLen     = 48
	itValLen     = 52
	itLastAccess = 56
	itItflags    = 64
	itHash       = 72
	itCheck      = 80
	itValSum     = 88
	itHeader     = 96
)

// mix64 is the murmur3 finalizer: a cheap avalanche so that any single-bit
// difference in a checksum input flips about half the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// valueSumOf is the checksum kept in itValSum: the CRC-32C of the value in
// the low half, which no single bit flip or burst of up to 32 bits leaves
// unchanged, and the length plus one in the high half, so a sum taken over
// a different length never matches and a zeroed header word never verifies.
func valueSumOf(vlen uint64, crc uint32) uint64 { return (vlen+1)<<32 | uint64(crc) }

// valueSum sums a value the library holds privately; itemValueSum sums
// the one stored in an item, where it lies.
func valueSum(value []byte) uint64 {
	return valueSumOf(uint64(len(value)), shm.CRC32C(0, value))
}

func (s *Store) itemValueSum(it uint64) uint64 {
	vlen := s.itemValLen(it)
	return valueSumOf(vlen, s.H.SumBytes(s.itemValOff(it), vlen))
}

// itemCheckOf computes the header checksum binding an item's immutable
// fields together. Two sequential mixes so a coordinated corruption of two
// fields cannot cancel in a pre-mix XOR.
func itemCheckOf(hash uint64, klen, vlen, flags uint32) uint64 {
	return mix64(mix64(hash^(uint64(klen)<<32|uint64(vlen))) ^ uint64(flags))
}

// itemCheckValid recomputes and compares an item's header checksum with
// relaxed loads (all four covered fields are immutable after publication,
// so torn reads are not a concern — only corrupted memory is).
func (s *Store) itemCheckValid(it uint64) bool {
	h := s.H
	return itemCheckOf(
		h.RelaxedLoad64(it+itHash),
		h.RelaxedLoad32(it+itKeyLen),
		h.RelaxedLoad32(it+itValLen),
		h.RelaxedLoad32(it+itFlags),
	) == h.RelaxedLoad64(it+itCheck)
}

const itflagLinked = uint64(1)

// itemSize returns the allocation size for a key/value pair.
func itemSize(keyLen, valLen uint64) uint64 {
	return itHeader + (keyLen+7)&^uint64(7) + valLen
}

func (s *Store) itemKeyOff(it uint64) uint64 { return it + itHeader }

func (s *Store) itemValOff(it uint64) uint64 {
	kl := uint64(s.H.Load32(it + itKeyLen))
	return it + itHeader + (kl+7)&^uint64(7)
}

func (s *Store) itemKeyLen(it uint64) uint64 { return uint64(s.H.Load32(it + itKeyLen)) }
func (s *Store) itemValLen(it uint64) uint64 { return uint64(s.H.Load32(it + itValLen)) }

// keyEqual reports whether the item's key equals key, without allocating.
func (s *Store) keyEqual(it uint64, key []byte) bool {
	if s.itemKeyLen(it) != uint64(len(key)) {
		return false
	}
	return s.H.EqualBytes(s.itemKeyOff(it), key)
}

// newItem allocates and fills an item. The key has already been captured
// from the client (it is compared again under the lock) and hash is its
// hash. The value may still be the client's own slice: copying it into the
// item, which only this thread can reach, is §3.4's copy into library
// memory before any lock is taken, and the value checksum is taken from
// the bytes that landed — never from the caller's slice — so a client
// scribbling mid-call stores a self-consistent item, whatever it holds. No
// locks are held during allocation, except on the replace-in-place paths
// that pass canEvict=false. The stores here are plain: the item is private
// until linkLocked publishes it through an atomic bucket store, and the
// grave guarantees no optimistic reader can still be probing recycled
// memory.
// The exception is hNext, stored through setChainNext.
func (c *Ctx) newItem(key, value []byte, hash uint64, flags uint32, exptime int64, canEvict bool) (uint64, error) {
	size := itemSize(uint64(len(key)), uint64(len(value)))
	it, err := c.allocWithEvict(size, canEvict)
	if err != nil {
		return 0, err
	}
	h := c.s.H
	setChainNext(c.s, it, 0)
	ralloc.StorePptr(h, it+itLRUNext, 0)
	ralloc.StorePptr(h, it+itLRUPrev, 0)
	h.Store64(it+itRefcount, 1) // the link reference
	h.Store64(it+itCASID, c.s.nextCAS())
	h.Store32(it+itExptime, uint32(exptime))
	h.Store32(it+itFlags, flags)
	h.Store32(it+itKeyLen, uint32(len(key)))
	h.Store32(it+itValLen, uint32(len(value)))
	h.Store64(it+itLastAccess, uint64(c.now()))
	h.Store64(it+itItflags, 0)
	h.Store64(it+itHash, hash)
	h.Store64(it+itCheck, itemCheckOf(hash, uint32(len(key)), uint32(len(value)), flags))
	h.WriteBytes(it+itHeader, key)
	h.WriteBytes(c.s.itemValOff(it), value)
	h.Store64(it+itValSum, c.s.itemValueSum(it))
	return it, nil
}

// itemHash reads the hash stored at allocation time.
func (s *Store) itemHash(it uint64) uint64 { return s.H.Load64(it + itHash) }

// incref pins an item the caller already knows is live (it holds the item
// lock, or another reference). Optimistic readers never pin.
func (s *Store) incref(it uint64) { s.H.Add64(it+itRefcount, 1) }

// decref unpins an item. When the last reference drops the item is
// quarantined on the grave list rather than freed, so that a concurrent
// optimistic reader holding a stale chain pointer still finds intact,
// type-stable memory; reapGrave frees quarantined items once every
// announced read section has been waited out.
func (c *Ctx) decref(it uint64) {
	if c.s.H.Add64(it+itRefcount, ^uint64(0)) == 0 {
		// The item is unreachable: not linked, not pinned.
		c.gravePush(it)
	}
}

func (s *Store) isLinked(it uint64) bool {
	return s.H.AtomicLoad64(it+itItflags)&itflagLinked != 0
}

func (s *Store) setLinked(it uint64, linked bool) {
	f := s.H.AtomicLoad64(it + itItflags)
	if linked {
		f |= itflagLinked
	} else {
		f &^= itflagLinked
	}
	s.H.AtomicStore64(it+itItflags, f)
}

// expired reports whether the item is past its expiry at time now.
func (s *Store) expired(it uint64, now int64) bool {
	e := s.H.Load32(it + itExptime)
	return e != 0 && int64(e) <= now
}

// allocWithEvict allocates from the thread cache, evicting LRU victims and
// retrying on memory exhaustion — the role of memcached's item_alloc loop.
// canEvict must be false when the caller holds an item lock (eviction
// acquires other item locks only by trylock, but blocking inline eviction
// is reserved for unlocked paths).
func (c *Ctx) allocWithEvict(size uint64, canEvict bool) (uint64, error) {
	for attempt := 0; ; attempt++ {
		// Honour the memory limit (-m): evict before exceeding the
		// watermark, not only when the heap itself is exhausted.
		if canEvict && c.s.A.LiveBytes()+size > c.s.memLimit {
			// Quarantined items still count as live allocation; reclaim
			// them before evicting anything actually in use.
			if c.s.GraveLen() > 0 && c.reapGrave() > 0 {
				continue
			}
			if attempt >= 200 || c.evictSome(8) == 0 && c.s.A.LiveBytes()+size > c.s.memLimit {
				return 0, ErrNoSpace
			}
			continue
		}
		off, err := c.cache.Malloc(size)
		if err == nil {
			return off, nil
		}
		// The quarantine may hold exactly the space we need.
		if c.s.GraveLen() > 0 && c.reapGrave() > 0 {
			if off, err = c.cache.Malloc(size); err == nil {
				return off, nil
			}
		}
		if !canEvict || attempt >= 50 {
			if !canEvict {
				// One best-effort trylock-only eviction pass.
				if c.evictSome(8) > 0 {
					if off, err2 := c.cache.Malloc(size); err2 == nil {
						return off, nil
					}
				}
			}
			return 0, ErrNoSpace
		}
		if c.evictSome(8) == 0 {
			return 0, ErrNoSpace
		}
	}
}
