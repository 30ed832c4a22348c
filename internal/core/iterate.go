package core

// Iteration over the whole store, for dump/inspection tooling and the
// bookkeeper. Iteration proceeds lock stripe by lock stripe; within a
// stripe the view is consistent, across stripes items may move (exactly
// like memcached's lru_crawler).

// Entry is one item surfaced by ForEach.
type Entry struct {
	Key     []byte
	Value   []byte
	Flags   uint32
	Exptime int64
	CAS     uint64
}

// ForEach invokes fn for every live (unexpired) entry. The Entry's slices
// are reused between calls; copy them to retain. fn returning false stops
// the iteration early. Returns the number of entries visited.
func (c *Ctx) ForEach(fn func(e *Entry) bool) int {
	c.enterOp()
	defer c.exitOp()
	s := c.s
	now := c.now()
	var e Entry
	visited := 0
	for li := uint64(0); li < s.numItemLocks; li++ {
		lock := s.itemLocks + li*8
		c.lock(lock)
		stop := false
		s.forEachBucketLocked(li, func(bucket uint64) {
			if stop {
				return
			}
			for it := loadChainHead(s, bucket); it != 0; it = loadChainNext(s, it) {
				if s.expired(it, now) {
					continue
				}
				klen := s.itemKeyLen(it)
				vlen := s.itemValLen(it)
				e.Key = grow(&c.keyBuf, klen)
				s.H.ReadBytes(s.itemKeyOff(it), e.Key)
				e.Value = grow(&c.valBuf, vlen)
				s.H.ReadBytes(s.itemValOff(it), e.Value)
				e.Flags = s.H.Load32(it + itFlags)
				e.Exptime = int64(s.H.Load32(it + itExptime))
				e.CAS = s.H.Load64(it + itCASID)
				visited++
				if !fn(&e) {
					stop = true
					return
				}
			}
		})
		c.unlock(lock)
		if stop {
			break
		}
	}
	return visited
}
