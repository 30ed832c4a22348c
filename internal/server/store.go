// Package server implements the baseline: the "original memcached" the
// paper compares against. It is a conventional socket server — an
// adjustable number of server threads accepting requests over Unix-domain
// (or TCP) sockets in either wire protocol — backed by a conventional
// single-process store: slab allocation, one LRU list per slab class
// (eviction coupled to allocation size), striped item locks, and a single
// mutex around statistics. Everything this package does from the socket
// inward is what the protected-library conversion deleted.
package server

import (
	"encoding/binary"
	"sync"
	"time"

	"plibmc/internal/histogram"
	"plibmc/internal/slab"
)

// Baseline item layout inside a slab chunk:
//
//	+0  hNext   (slab.Handle+1; 0 = nil)
//	+8  lruNext (slab.Handle+1)
//	+16 lruPrev (slab.Handle+1)
//	+24 casID
//	+32 exptime (u32) | flags (u32)
//	+40 keyLen (u32) | valLen (u32)
//	+48 key bytes, then value bytes
const (
	bHNext   = 0
	bLRUNext = 8
	bLRUPrev = 16
	bCASID   = 24
	bExptime = 32
	bFlags   = 36
	bKeyLen  = 40
	bValLen  = 44
	bHeader  = 48
)

const nilRef = uint64(0)

func ref(h slab.Handle) uint64   { return uint64(h) + 1 }
func deref(r uint64) slab.Handle { return slab.Handle(r - 1) }

// Store is the baseline in-process K-V store.
type Store struct {
	sl *slab.Allocator

	locks []sync.Mutex // item-lock stripe
	table []uint64     // bucket heads (refs)
	mask  uint64

	lrus []classLRU // one per slab class: the classic coupling

	statMu sync.Mutex // the single statistics lock the paper scattered
	stats  Stats
	lat    [NumLatClasses]histogram.H // per-op latency, also under statMu

	casMu sync.Mutex
	cas   uint64

	nowFn func() int64
}

type classLRU struct {
	mu   sync.Mutex
	head uint64
	tail uint64
}

// Stats mirrors the counters the protected-library store reports.
type Stats struct {
	Gets, GetHits, GetMisses        uint64
	Sets, Deletes                   uint64
	Incrs, Decrs                    uint64
	Touches, TouchHits, TouchMisses uint64
	Evictions, Expired              uint64
	CurrItems, Bytes                uint64
}

// Per-op latency classes for the baseline's histograms.
const (
	LatGet = iota
	LatSet
	LatDelete
	LatTouch
	LatIncr
	NumLatClasses
)

// LatClassNames names the latency classes for "stats latency" output.
var LatClassNames = [NumLatClasses]string{"get", "set", "delete", "touch", "incr"}

// NewStore creates a baseline store with the given memory limit (-m) and
// 2^hashPower buckets.
func NewStore(memLimit int64, hashPower uint) *Store {
	sl := slab.New(memLimit)
	nlocks := 1024
	for nlocks > 1<<hashPower {
		nlocks /= 2 // the lock stripe must not outnumber buckets
	}
	s := &Store{
		sl:    sl,
		locks: make([]sync.Mutex, nlocks),
		table: make([]uint64, 1<<hashPower),
		mask:  (1 << hashPower) - 1,
		lrus:  make([]classLRU, sl.NumClasses()),
		nowFn: func() int64 { return time.Now().Unix() },
	}
	return s
}

// SetClock overrides the time source (tests).
func (s *Store) SetClock(now func() int64) { s.nowFn = now }

// SlabStats reports per-class slab usage ("stats slabs").
func (s *Store) SlabStats() []slab.Stats { return s.sl.StatsPerClass() }

func (s *Store) lockFor(h uint64) *sync.Mutex {
	return &s.locks[h&uint64(len(s.locks)-1)]
}

func hashKey(key []byte) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

func (s *Store) nextCAS() uint64 {
	s.casMu.Lock()
	s.cas++
	v := s.cas
	s.casMu.Unlock()
	return v
}

// Chunk field accessors.

func (s *Store) u64(h slab.Handle, off int) uint64 {
	return binary.LittleEndian.Uint64(s.sl.Bytes(h)[off:])
}
func (s *Store) putU64(h slab.Handle, off int, v uint64) {
	binary.LittleEndian.PutUint64(s.sl.Bytes(h)[off:], v)
}
func (s *Store) u32(h slab.Handle, off int) uint32 {
	return binary.LittleEndian.Uint32(s.sl.Bytes(h)[off:])
}
func (s *Store) putU32(h slab.Handle, off int, v uint32) {
	binary.LittleEndian.PutUint32(s.sl.Bytes(h)[off:], v)
}

func (s *Store) key(h slab.Handle) []byte {
	b := s.sl.Bytes(h)
	kl := binary.LittleEndian.Uint32(b[bKeyLen:])
	return b[bHeader : bHeader+kl]
}

func (s *Store) value(h slab.Handle) []byte {
	b := s.sl.Bytes(h)
	kl := binary.LittleEndian.Uint32(b[bKeyLen:])
	vl := binary.LittleEndian.Uint32(b[bValLen:])
	return b[bHeader+kl : bHeader+kl+vl]
}

func (s *Store) expired(h slab.Handle, now int64) bool {
	e := s.u32(h, bExptime)
	return e != 0 && int64(e) <= now
}

// alloc gets a chunk for an item, evicting from the tail of the same
// class's LRU on memory exhaustion — the classic memcached eviction loop
// whose allocation/eviction coupling the paper removed. held is the item
// lock the caller owns.
func (s *Store) alloc(size int, held *sync.Mutex) (slab.Handle, bool) {
	for attempt := 0; attempt < 50; attempt++ {
		h, err := s.sl.Alloc(size)
		if err == nil {
			return h, true
		}
		ci := s.sl.ClassFor(size)
		if ci < 0 || !s.evictFromClass(ci, held) {
			return 0, false
		}
	}
	return 0, false
}

// evictTries bounds how far up from the LRU tail one eviction looks.
const evictTries = 5

// evictFromClass removes the least recently used item of slab class ci
// whose item lock it can take. A victim on the caller's own stripe, held,
// is evicted under that lock; any other stripe is only try-locked, because
// blocking on it can deadlock against a setter that holds it and is
// evicting towards ours. A busy victim is passed over for the next one up.
func (s *Store) evictFromClass(ci int, held *sync.Mutex) bool {
	l := &s.lrus[ci]
	var key []byte
	for skip := 0; skip < evictTries; skip++ {
		l.mu.Lock()
		r := l.tail
		for i := 0; i < skip && r != nilRef; i++ {
			r = s.u64(deref(r), bLRUPrev)
		}
		if r != nilRef {
			// Copied under the list lock: an item on the list cannot be
			// freed before removeLRU gets that lock.
			key = append(key[:0], s.key(deref(r))...)
		}
		l.mu.Unlock()
		if r == nilRef {
			return false
		}
		h := hashKey(key)
		mu := s.lockFor(h)
		if mu != held && !mu.TryLock() {
			continue
		}
		// Re-find under the lock: the victim may have moved or been deleted.
		evicted := s.find(key, h) == r
		if evicted {
			s.unlink(deref(r), h)
		}
		if mu != held {
			mu.Unlock()
		}
		if evicted {
			s.statMu.Lock()
			s.stats.Evictions++
			s.statMu.Unlock()
			return true
		}
	}
	return false
}

// find walks the bucket chain for key. Caller holds the item lock.
func (s *Store) find(key []byte, h uint64) uint64 {
	r := s.table[h&s.mask]
	for r != nilRef {
		it := deref(r)
		k := s.key(it)
		if string(k) == string(key) { // compiler avoids the copies
			return r
		}
		r = s.u64(it, bHNext)
	}
	return nilRef
}

// link inserts an item into the table and its class LRU. Caller holds the
// item lock.
func (s *Store) link(it slab.Handle, h uint64) {
	bucket := &s.table[h&s.mask]
	s.putU64(it, bHNext, *bucket)
	*bucket = ref(it)
	ci := s.sl.ClassOf(it)
	l := &s.lrus[ci]
	l.mu.Lock()
	s.putU64(it, bLRUPrev, nilRef)
	s.putU64(it, bLRUNext, l.head)
	if l.head != nilRef {
		s.putU64(deref(l.head), bLRUPrev, ref(it))
	} else {
		l.tail = ref(it)
	}
	l.head = ref(it)
	l.mu.Unlock()
	s.statMu.Lock()
	s.stats.CurrItems++
	s.stats.Bytes += uint64(s.sl.ClassSize(ci))
	s.statMu.Unlock()
}

// unlink removes an item from the table and LRU and frees its chunk.
// Caller holds the item lock.
func (s *Store) unlink(it slab.Handle, h uint64) {
	bucket := &s.table[h&s.mask]
	r := *bucket
	var prevItem slab.Handle
	havePrev := false
	for r != nilRef {
		cur := deref(r)
		if cur == it {
			next := s.u64(cur, bHNext)
			if havePrev {
				s.putU64(prevItem, bHNext, next)
			} else {
				*bucket = next
			}
			break
		}
		prevItem, havePrev = cur, true
		r = s.u64(cur, bHNext)
	}
	s.removeLRU(it)
	ci := s.sl.ClassOf(it)
	s.statMu.Lock()
	s.stats.CurrItems--
	s.stats.Bytes -= uint64(s.sl.ClassSize(ci))
	s.statMu.Unlock()
	s.sl.Free(it)
}

// bumpLRU moves an accessed item to the head of its class LRU, so the
// tail stays least-recently-*used* rather than least-recently-*stored*.
// Caller holds the item lock; the list edit itself takes the class-LRU
// lock like every other list edit.
func (s *Store) bumpLRU(it slab.Handle) {
	ci := s.sl.ClassOf(it)
	l := &s.lrus[ci]
	l.mu.Lock()
	if l.head != ref(it) {
		prev := s.u64(it, bLRUPrev)
		next := s.u64(it, bLRUNext)
		if prev != nilRef {
			s.putU64(deref(prev), bLRUNext, next)
		}
		if next != nilRef {
			s.putU64(deref(next), bLRUPrev, prev)
		} else {
			l.tail = prev
		}
		s.putU64(it, bLRUPrev, nilRef)
		s.putU64(it, bLRUNext, l.head)
		if l.head != nilRef {
			s.putU64(deref(l.head), bLRUPrev, ref(it))
		}
		l.head = ref(it)
	}
	l.mu.Unlock()
}

// RecordLatency folds one operation's service time into the per-op
// histograms — under the same single statistics mutex as every other
// counter, which is exactly the cross-thread contention the
// protected-library store's scattered per-thread histograms avoid.
func (s *Store) RecordLatency(class int, d time.Duration) {
	s.statMu.Lock()
	s.lat[class].Record(d)
	s.statMu.Unlock()
}

// LatencySnapshot copies the per-op histograms out under the stats lock.
func (s *Store) LatencySnapshot() [NumLatClasses]histogram.H {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.lat
}

func (s *Store) removeLRU(it slab.Handle) {
	ci := s.sl.ClassOf(it)
	l := &s.lrus[ci]
	l.mu.Lock()
	prev := s.u64(it, bLRUPrev)
	next := s.u64(it, bLRUNext)
	if prev != nilRef {
		s.putU64(deref(prev), bLRUNext, next)
	} else {
		l.head = next
	}
	if next != nilRef {
		s.putU64(deref(next), bLRUPrev, prev)
	} else {
		l.tail = prev
	}
	l.mu.Unlock()
}
