package core

import (
	"plibmc/internal/ralloc"
	"plibmc/internal/ring"
)

// The key pass. A batch's per-key work is mostly waiting on memory: the
// bucket word, then the chain head's header, then its key and value, each
// load depending on the one before. Run key after key, a batch of k pays k
// of those stall chains in a row. The key pass runs before dispatch and
// does two things for every op:
//
//  1. it captures the key into one arena the context keeps (the §3.4 copy,
//     once per key instead of once per op's entry point) and hashes the
//     captured copy, never the client's bytes;
//  2. inside one announced read section it loads every key's bucket word,
//     and then every chain head's header and key lines. The loads of one
//     round are independent of each other, so the CPU keeps their misses
//     in flight together; by the time dispatch probes a key, its lines are
//     in cache.
//
// The touching only reads, and writes nothing but the context's scratch.
// It follows the optimistic read path's rules (seqread.go): every offset is
// bounds-checked before it is loaded, and the chain heads are dereferenced
// only inside the read section, which keeps every block reachable from the
// chains an item until it closes (grave.go) — a head unlinked and
// quarantined meanwhile still holds the words we load. What it loads is
// never trusted: dispatch re-reads everything under its own seqlock or lock.
// It is skipped while the table is expanding (a key's bucket then depends
// on the expansion cursor, which belongs under the item lock) and when no
// section can be opened, as for a context without a reader slot; the
// captured keys and hashes serve in every case.

// opSlot is one batch operation's scratch, kept by the context across
// batches: where the key pass left its key and hash, the chain head it
// touched, and where dispatch left its value.
type opSlot struct {
	hash  uint64
	head  uint64 // chain head the key pass loaded; 0 = none
	koff  int    // the captured key's offset in keyArena
	klen  int    // its length; -1 = refused (longer than MaxKeyLen)
	start int    // the value's offset in the batch's buffer; -1 = none
}

// keySlots lends n op slots and empties the key arena for a new batch.
func (c *Ctx) keySlots(n int) []opSlot {
	if cap(c.batchSlots) < n {
		c.batchSlots = make([]opSlot, n)
	}
	c.keyArena = c.keyArena[:0]
	return c.batchSlots[:n]
}

// takeKey captures key into the arena and hashes the captured bytes.
func (c *Ctx) takeKey(sl *opSlot, key []byte) {
	sl.start, sl.head = -1, 0
	if len(key) > MaxKeyLen {
		sl.klen = -1
		return
	}
	sl.koff, sl.klen = len(c.keyArena), len(key)
	c.keyArena = append(c.keyArena, key...)
	sl.hash = ring.Hash(c.keyArena[sl.koff:])
}

// slotKey returns the key takeKey captured for sl.
func (c *Ctx) slotKey(sl *opSlot) []byte {
	return c.keyArena[sl.koff : sl.koff+sl.klen : sl.koff+sl.klen]
}

// takeOne is the front half Do, GetAppend and Set share outside a batch:
// the length check, the capture and the hash.
func (c *Ctx) takeOne(key []byte) ([]byte, uint64, error) {
	if len(key) > MaxKeyLen {
		return nil, 0, ErrKeyTooLong
	}
	k := c.capture(&c.keyBuf, key)
	return k, ring.Hash(k), nil
}

// touchChains loads every slot's bucket word, then the header and key
// lines of every chain head, inside one read section. The loaded words are
// summed into c.touched only so that no load is dead code.
func (c *Ctx) touchChains(slots []opSlot) {
	if c.rdSlot == 0 {
		return
	}
	s := c.s
	h := s.H
	if ralloc.AtomicLoadPptr(h, s.htStorage+htOldTable) != 0 {
		return
	}
	size := h.Size()
	tbl := ralloc.AtomicLoadPptr(h, s.htStorage+htTable)
	power := h.RelaxedLoad64(s.htStorage + htHashPower)
	if tbl == 0 || tbl%8 != 0 || tbl > size || power > 30 || !c.beginRead() {
		return
	}
	mask := uint64(1)<<power - 1
	for i := range slots {
		if sl := &slots[i]; sl.klen >= 0 {
			if b := tbl + (sl.hash&mask)*8; b+8 <= size {
				sl.head = ralloc.AtomicLoadPptr(h, b)
			}
		}
	}
	sum := c.touched
	for i := range slots {
		// itKeyLen and itCheck are written once, before the item is
		// published: no store races these loads.
		if it := slots[i].head; it != 0 && it%8 == 0 && it+itHeader <= size {
			sum += h.RelaxedLoad64(it+itKeyLen) + h.RelaxedLoad64(it+itCheck)
		}
	}
	c.endRead()
	c.touched = sum
}
