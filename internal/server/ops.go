package server

import (
	"strconv"
	"sync"

	"plibmc/internal/protocol"
	"plibmc/internal/slab"
)

// Baseline store operations. Unlike the protected-library store, these run
// only inside the server process, so Go mutexes and direct slices are fine;
// the paper's point is that clients cannot reach this code without a socket
// round trip.

// buildItem allocates and fills an unlinked item. The caller holds the
// key's item lock, held; allocation may evict another item on that stripe,
// so a ref found before the call must be looked up again after it.
func (s *Store) buildItem(held *sync.Mutex, key, value []byte, flags uint32, exptime int64) (slab.Handle, bool) {
	it, ok := s.alloc(bHeader+len(key)+len(value), held)
	if !ok {
		return 0, false
	}
	b := s.sl.Bytes(it)
	s.putU64(it, bHNext, nilRef)
	s.putU64(it, bLRUNext, nilRef)
	s.putU64(it, bLRUPrev, nilRef)
	s.putU64(it, bCASID, s.nextCAS())
	s.putU32(it, bExptime, uint32(exptime))
	s.putU32(it, bFlags, flags)
	s.putU32(it, bKeyLen, uint32(len(key)))
	s.putU32(it, bValLen, uint32(len(value)))
	copy(b[bHeader:], key)
	copy(b[bHeader+len(key):], value)
	return it, true
}

func (s *Store) absExpiry(exptime int64) int64 {
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return s.nowFn() - 1
	case exptime <= 60*60*24*30:
		return s.nowFn() + exptime
	default:
		return exptime
	}
}

// Get retrieves a value. The returned slice is a copy.
func (s *Store) Get(key []byte) ([]byte, uint32, uint64, bool) {
	s.statMu.Lock()
	s.stats.Gets++
	s.statMu.Unlock()
	h := hashKey(key)
	mu := s.lockFor(h)
	mu.Lock()
	r := s.find(key, h)
	if r != nilRef && s.expired(deref(r), s.nowFn()) {
		s.unlink(deref(r), h)
		s.statMu.Lock()
		s.stats.Expired++
		s.statMu.Unlock()
		r = nilRef
	}
	if r == nilRef {
		mu.Unlock()
		s.statMu.Lock()
		s.stats.GetMisses++
		s.statMu.Unlock()
		return nil, 0, 0, false
	}
	it := deref(r)
	val := append([]byte(nil), s.value(it)...)
	flags := s.u32(it, bFlags)
	cas := s.u64(it, bCASID)
	// A hit is a *use*: move the item to the head of its class LRU so the
	// eviction tail tracks recency of access, not of insertion. Without
	// this the "LRU" degrades to FIFO and hot items get evicted.
	s.bumpLRU(it)
	mu.Unlock()
	s.statMu.Lock()
	s.stats.GetHits++
	s.statMu.Unlock()
	return val, flags, cas, true
}

type storeVerb int

const (
	verbSet storeVerb = iota
	verbAdd
	verbReplace
	verbCAS
	verbAppend
	verbPrepend
)

func (s *Store) storeItem(verb storeVerb, key, value []byte, flags uint32, exptime int64, cas uint64) protocol.Status {
	s.statMu.Lock()
	s.stats.Sets++
	s.statMu.Unlock()
	if len(key) > protocol.MaxKeyLen {
		return protocol.StatusInvalidArgs
	}
	h := hashKey(key)
	mu := s.lockFor(h)
	mu.Lock()
	defer mu.Unlock()
	oldRef := s.reapIfExpired(s.find(key, h), h)
	switch verb {
	case verbAdd:
		if oldRef != nilRef {
			return protocol.StatusKeyExists
		}
	case verbReplace:
		if oldRef == nilRef {
			return protocol.StatusKeyNotFound
		}
	case verbCAS:
		if oldRef == nilRef {
			return protocol.StatusKeyNotFound
		}
		if s.u64(deref(oldRef), bCASID) != cas {
			return protocol.StatusKeyExists
		}
	case verbAppend, verbPrepend:
		if oldRef == nilRef {
			return protocol.StatusNotStored
		}
		old := s.value(deref(oldRef))
		combined := make([]byte, 0, len(old)+len(value))
		if verb == verbAppend {
			combined = append(append(combined, old...), value...)
		} else {
			combined = append(append(combined, value...), old...)
		}
		value = combined
		flags = s.u32(deref(oldRef), bFlags)
		exptime = int64(s.u32(deref(oldRef), bExptime))
	}
	if verb != verbAppend && verb != verbPrepend {
		exptime = s.absExpiry(exptime)
	}
	it, ok := s.buildItem(mu, key, value, flags, exptime)
	if !ok {
		return protocol.StatusOutOfMemory
	}
	if oldRef = s.find(key, h); oldRef != nilRef {
		s.unlink(deref(oldRef), h)
	}
	s.link(it, h)
	return protocol.StatusOK
}

// Set and friends expose memcached's storage commands.
func (s *Store) Set(key, value []byte, flags uint32, exptime int64) protocol.Status {
	return s.storeItem(verbSet, key, value, flags, exptime, 0)
}

// Add stores only if absent.
func (s *Store) Add(key, value []byte, flags uint32, exptime int64) protocol.Status {
	return s.storeItem(verbAdd, key, value, flags, exptime, 0)
}

// Replace stores only if present.
func (s *Store) Replace(key, value []byte, flags uint32, exptime int64) protocol.Status {
	return s.storeItem(verbReplace, key, value, flags, exptime, 0)
}

// CAS stores only if the generation matches.
func (s *Store) CAS(key, value []byte, flags uint32, exptime int64, cas uint64) protocol.Status {
	return s.storeItem(verbCAS, key, value, flags, exptime, cas)
}

// Append concatenates after the existing value.
func (s *Store) Append(key, value []byte) protocol.Status {
	return s.storeItem(verbAppend, key, value, 0, 0, 0)
}

// Prepend concatenates before the existing value.
func (s *Store) Prepend(key, value []byte) protocol.Status {
	return s.storeItem(verbPrepend, key, value, 0, 0, 0)
}

// Delete removes a key.
func (s *Store) Delete(key []byte) protocol.Status {
	s.statMu.Lock()
	s.stats.Deletes++
	s.statMu.Unlock()
	h := hashKey(key)
	mu := s.lockFor(h)
	mu.Lock()
	defer mu.Unlock()
	r := s.find(key, h)
	if r == nilRef {
		return protocol.StatusKeyNotFound
	}
	// An expired-but-unreaped item is logically gone: reap it here, but as
	// an expiry, not a successful delete — the client must see NOT_FOUND
	// exactly as if the sweeper had gotten there first.
	if s.expired(deref(r), s.nowFn()) {
		s.unlink(deref(r), h)
		s.statMu.Lock()
		s.stats.Expired++
		s.statMu.Unlock()
		return protocol.StatusKeyNotFound
	}
	s.unlink(deref(r), h)
	return protocol.StatusOK
}

// IncrDecr adjusts a numeric value.
func (s *Store) IncrDecr(key []byte, delta uint64, decr bool) (uint64, protocol.Status) {
	s.statMu.Lock()
	if decr {
		s.stats.Decrs++
	} else {
		s.stats.Incrs++
	}
	s.statMu.Unlock()
	h := hashKey(key)
	mu := s.lockFor(h)
	mu.Lock()
	defer mu.Unlock()
	// An expired-but-unreaped item is logically gone: reap it (as an
	// expiry) instead of incrementing a corpse the sweeper hasn't reached.
	// Pre-fix the corpse stayed linked in the table and LRU.
	r := s.reapIfExpired(s.find(key, h), h)
	if r == nilRef {
		return 0, protocol.StatusKeyNotFound
	}
	it := deref(r)
	val := s.value(it)
	if len(val) == 0 || len(val) > 20 {
		return 0, protocol.StatusNonNumeric
	}
	old, err := strconv.ParseUint(string(val), 10, 64)
	if err != nil {
		return 0, protocol.StatusNonNumeric
	}
	var v uint64
	if decr {
		if delta > old {
			v = 0
		} else {
			v = old - delta
		}
	} else {
		v = old + delta
	}
	rendered := strconv.AppendUint(nil, v, 10)
	flags := s.u32(it, bFlags)
	exp := int64(s.u32(it, bExptime))
	if len(rendered) == len(val) {
		copy(val, rendered)
		s.putU64(it, bCASID, s.nextCAS())
		// The in-place rewrite is a use: bump the class LRU exactly as Get
		// does, or hot counters degrade to FIFO eviction order. The
		// width-change path below gets its bump from link().
		s.bumpLRU(it)
		return v, protocol.StatusOK
	}
	key2 := append([]byte(nil), s.key(it)...)
	nit, ok := s.buildItem(mu, key2, rendered, flags, exp)
	if !ok {
		return 0, protocol.StatusOutOfMemory
	}
	if s.find(key2, h) == r {
		s.unlink(it, h)
	}
	s.link(nit, h)
	return v, protocol.StatusOK
}

// GetAndTouch retrieves a value and updates its expiry atomically. It is
// a retrieval, so it feeds the get counters like Get does, plus the touch
// counters for the expiry update.
func (s *Store) GetAndTouch(key []byte, exptime int64) ([]byte, uint32, uint64, bool) {
	abs := s.absExpiry(exptime)
	s.statMu.Lock()
	s.stats.Gets++
	s.stats.Touches++
	s.statMu.Unlock()
	h := hashKey(key)
	mu := s.lockFor(h)
	mu.Lock()
	r := s.reapIfExpired(s.find(key, h), h)
	if r == nilRef {
		mu.Unlock()
		s.statMu.Lock()
		s.stats.GetMisses++
		s.stats.TouchMisses++
		s.statMu.Unlock()
		return nil, 0, 0, false
	}
	it := deref(r)
	s.putU32(it, bExptime, uint32(abs))
	val := append([]byte(nil), s.value(it)...)
	flags := s.u32(it, bFlags)
	cas := s.u64(it, bCASID)
	s.bumpLRU(it)
	mu.Unlock()
	s.statMu.Lock()
	s.stats.GetHits++
	s.stats.TouchHits++
	s.statMu.Unlock()
	return val, flags, cas, true
}

// Touch updates an entry's expiry.
func (s *Store) Touch(key []byte, exptime int64) protocol.Status {
	abs := s.absExpiry(exptime)
	s.statMu.Lock()
	s.stats.Touches++
	s.statMu.Unlock()
	h := hashKey(key)
	mu := s.lockFor(h)
	mu.Lock()
	defer mu.Unlock()
	r := s.reapIfExpired(s.find(key, h), h)
	if r == nilRef {
		s.statMu.Lock()
		s.stats.TouchMisses++
		s.statMu.Unlock()
		return protocol.StatusKeyNotFound
	}
	s.putU32(deref(r), bExptime, uint32(abs))
	s.statMu.Lock()
	s.stats.TouchHits++
	s.statMu.Unlock()
	return protocol.StatusOK
}

// reapIfExpired unlinks an expired item and counts the expiry, returning
// nilRef; a live (or absent) ref passes through. Caller holds the item
// lock for h.
func (s *Store) reapIfExpired(r uint64, h uint64) uint64 {
	if r == nilRef || !s.expired(deref(r), s.nowFn()) {
		return r
	}
	s.unlink(deref(r), h)
	s.statMu.Lock()
	s.stats.Expired++
	s.statMu.Unlock()
	return nilRef
}

// FlushAll empties the store.
func (s *Store) FlushAll() {
	for b := range s.table {
		h := uint64(b)
		mu := s.lockFor(h)
		mu.Lock()
		for s.table[b] != nilRef {
			s.unlink(deref(s.table[b]), h)
		}
		mu.Unlock()
	}
}

// Snapshot returns the current statistics.
func (s *Store) Snapshot() Stats {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.stats
}
