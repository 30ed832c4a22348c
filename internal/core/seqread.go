package core

import "plibmc/internal/ralloc"

// The lock-free read path.
//
// Get is 95% of the paper's headline workloads, yet the baseline design
// serializes every Get on a heap-resident bucket spinlock. Once the
// domain-switch cost is driven to near zero, that residual synchronization
// is the dominant scaling cost — so reads become optimistic: walk the
// bucket chain with no lock, copy the value into library-private scratch,
// and validate against the stripe's seqlock that no writer overlapped.
// Writers bump the seqlock to odd before mutating a chain or rewriting a
// value in place and back to even after (they already hold the item lock
// for mutual exclusion among themselves, so bumps never race).
//
// The protocol, per attempt:
//
//  1. sample the stripe seqlock; odd → a writer is active, retry;
//  2. announce a read section in this Ctx's reader slot (see grave.go) so
//     no block reachable from the chains can be freed under us;
//  3. walk the chain with atomic pointer loads, compare keys;
//  4. copy a match's value, flags and CAS into private scratch with
//     relaxed loads, still inside the section — no pin: the section
//     already keeps the item's bytes in place, and the refcount is a
//     word every reader of a hot key would otherwise fight over;
//  5. re-validate the seqlock and close the section. Unchanged ⇒ the
//     snapshot is consistent: return it (a clean full walk with no match
//     is likewise a validated miss). Changed ⇒ discard everything and
//     retry. An item unlinked (and perhaps quarantined) under the walk was
//     unlinked inside a write section on this stripe, so a copy of it
//     never validates.
//
// The only words a reader writes are in its own slot, on lines no other
// thread writes: an optimistic hit writes nothing shared.
//
// After optMaxAttempts failed validations — or whenever the lookup needs
// a write the reader must not perform (lazy expiry, an LRU bump that is
// due, routing during a table expansion) — the operation falls back to
// the locked path, which remains the correctness baseline.
//
// The §3.4 crash-safety discipline is preserved: validation happens after
// the copy into library-private memory, client-visible memory is touched
// only after the section closes, and a reader that loses every race has
// written nothing outside its own slot.

const (
	// optMaxAttempts bounds validation retries before falling back to the
	// locked path, so a write-hot stripe cannot starve a reader.
	optMaxAttempts = 3
	// optMaxChain bounds a chain walk. A torn walk can splice across
	// buckets mid-resize and form transient cycles; the bound turns those
	// into ordinary retries.
	optMaxChain = 4096
)

// Outcomes of one optimistic probe.
const (
	optOK       = iota // consistent hit (value copied) or consistent miss
	optRetry           // torn walk or dead item: retry, then fall back
	optFallback        // needs a write (expiry, LRU bump): locked path now
)

// optGet attempts the lock-free lookup of key (already captured; hash
// precomputed). ok=false means the caller must run the locked path. On
// ok=true, found distinguishes a validated hit — value in c.valBuf[:vlen]
// — from a validated miss.
func (c *Ctx) optGet(key []byte, hash uint64) (flags uint32, cas uint64, vlen uint64, found, ok bool) {
	if c.rdSlot == 0 {
		return 0, 0, 0, false, false
	}
	s := c.s
	h := s.H
	size := h.Size()
	seqOff := s.seqOff(hash)
	inject := c.forceSeqRetries
	for attempt := 0; attempt < optMaxAttempts; attempt++ {
		s0 := h.SeqRead(seqOff)
		if s0&1 != 0 {
			c.stat(statSeqRetries, 1)
			continue
		}
		if ralloc.AtomicLoadPptr(h, s.htStorage+htOldTable) != 0 {
			// Expansion in progress: per-key routing between the two
			// tables belongs under the item lock.
			return 0, 0, 0, false, false
		}
		tbl := ralloc.AtomicLoadPptr(h, s.htStorage+htTable)
		power := h.RelaxedLoad64(s.htStorage + htHashPower)
		if tbl == 0 || power > 30 {
			c.stat(statSeqRetries, 1)
			continue
		}
		bucket := tbl + (hash&((uint64(1)<<power)-1))*8
		if bucket%8 != 0 || bucket+8 > size {
			c.stat(statSeqRetries, 1)
			continue
		}

		if !c.beginRead() {
			if c.rdSlot == 0 {
				return 0, 0, 0, false, false // slot lost: locked path
			}
			c.stat(statSeqRetries, 1)
			continue
		}
		var state int
		flags, cas, vlen, found, state = c.optProbe(key, bucket, size)
		valid := state == optOK && h.SeqValidate(seqOff, s0)
		c.endRead()
		if inject > 0 {
			inject--
			valid = false
		}
		if state == optFallback {
			return 0, 0, 0, false, false
		}
		if valid {
			return flags, cas, vlen, found, true
		}
		c.stat(statSeqRetries, 1)
	}
	return 0, 0, 0, false, false
}

// optProbe performs one unlocked walk-and-copy inside an announced read
// section. Every offset is bounds-checked before use: a torn walk may hand
// us stale chain pointers, and the probe must fail by retrying, never by
// faulting.
func (c *Ctx) optProbe(key []byte, bucket, size uint64) (flags uint32, cas uint64, vlen uint64, found bool, state int) {
	s := c.s
	h := s.H
	it := ralloc.AtomicLoadPptr(h, bucket)
	for steps := 0; it != 0; steps++ {
		if steps >= optMaxChain || it%8 != 0 || it+itHeader > size {
			return 0, 0, 0, false, optRetry
		}
		klen := uint64(h.RelaxedLoad32(it + itKeyLen))
		if klen == uint64(len(key)) && it+itHeader+klen <= size && h.EqualBytes(it+itHeader, key) {
			break
		}
		it = ralloc.AtomicLoadPptr(h, it+itHNext)
	}
	if it == 0 {
		return 0, 0, 0, false, optOK // a full clean walk: validated miss
	}
	// The section keeps the memory in place (it may already be quarantined;
	// then the seqlock will not validate). Key bytes, keyLen, valLen and
	// flags are immutable after publication; casID and the value are
	// seq-validated; exptime and lastAccess are advisory.
	if !c.s.itemCheckValid(it) {
		return 0, 0, 0, false, optFallback // locked path quarantines it
	}
	now := c.now()
	if e := h.RelaxedLoad32(it + itExptime); e != 0 && int64(e) <= now {
		return 0, 0, 0, false, optFallback // lazy expiry unlinks under the lock
	}
	if uint64(now)-h.RelaxedLoad64(it+itLastAccess) >= lruBumpInterval {
		return 0, 0, 0, false, optFallback // the LRU bump is a write
	}
	vlen = uint64(h.RelaxedLoad32(it + itValLen))
	voff := it + itHeader + (uint64(len(key))+7)&^uint64(7)
	if vlen > MaxValueLen || voff > size || voff+vlen > size {
		return 0, 0, 0, false, optRetry
	}
	h.AtomicReadBytes(voff, grow(&c.valBuf, vlen))
	flags = h.RelaxedLoad32(it + itFlags)
	cas = h.RelaxedLoad64(it + itCASID)
	return flags, cas, vlen, true, optOK
}
