package core

// Migration primitives (live resharding). A segment migrator streams
// entries between two protected-library stores in batches: a BatchExport
// op reads an entry off the source without disturbing its LRU position and
// carries the absolute expiry along, a BatchInstall op writes it into the
// destination preserving the source's CAS generation verbatim. Because
// each shard seeds its CAS counter into a disjoint space (shard index in
// the high bits), a migrated entry's CAS stays globally unique and client
// CAS tokens taken before the move keep validating after it.

// exportAppend is a locked read that skips the LRU bump (copying a
// segment must not rejuvenate its entries on the shard they are leaving)
// and returns the entry's absolute expiry so the destination can store it
// verbatim.
func (c *Ctx) exportAppend(dst, k []byte, hash uint64) ([]byte, uint32, uint64, int64, error) {
	defer c.opEnd(LatGet, c.opBegin())
	s := c.s
	lock := s.itemLockOff(hash)
	c.lock(lock)
	it := c.findLocked(k, hash)
	if it == 0 {
		c.unlock(lock)
		return dst, 0, 0, 0, ErrNotFound
	}
	s.incref(it)
	flags := s.H.Load32(it + itFlags)
	cas := s.H.Load64(it + itCASID)
	exptime := int64(s.H.Load32(it + itExptime))
	vlen := s.itemValLen(it)
	voff := s.itemValOff(it)
	c.unlock(lock)
	prot := grow(&c.valBuf, vlen)
	s.H.AtomicReadBytes(voff, prot)
	c.decref(it)
	return append(dst, prot...), flags, cas, exptime, nil
}

// installKey unconditionally stores a migrated entry: exptime is already
// absolute (no relative-cutoff interpretation) and the entry's CAS
// generation is set to cas rather than a fresh one from this store's
// counter. The item is private until linkLocked publishes it, so the
// CAS overwrite after newItem is invisible to concurrent readers.
func (c *Ctx) installKey(k []byte, hash uint64, value []byte, flags uint32, exptime int64, cas uint64) error {
	if len(value) > MaxValueLen {
		return ErrValueTooBig
	}
	defer c.opEnd(LatSet, c.opBegin())
	it, err := c.newItem(k, value, hash, flags, exptime, true)
	if err != nil {
		return err
	}
	s := c.s
	s.H.Store64(it+itCASID, cas)
	lock := s.itemLockOff(hash)
	c.lock(lock)
	old := c.findLocked(k, hash)
	if old != 0 {
		c.swapLocked(old, it, hash)
	} else {
		c.linkLocked(it, hash)
	}
	c.unlock(lock)
	return nil
}
