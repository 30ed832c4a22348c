package core

import (
	"runtime"
	"strconv"

	"plibmc/internal/faultpoint"
	"plibmc/internal/mono"
	"plibmc/internal/ralloc"
)

// Crash-injection sites for the recovery fault matrix (faultmatrix_test at
// the repo root). Each marks a state the repair pass must cope with when a
// thread dies exactly there; all compile to a single atomic load unless a
// test arms them.
var (
	fpStoreAfterAlloc   = faultpoint.New("ops.store.after_alloc") // item built (or its value half copied), lock not yet taken
	fpStoreLocked       = faultpoint.New("ops.store.locked")      // bucket lock held, store untouched
	fpStoreMidSwap      = faultpoint.New("ops.store.mid_swap")    // inside the swap section: new at head, old still chained
	fpStoreAfterLink    = faultpoint.New("ops.store.after_link")  // fully linked, lock still held
	fpDeleteAfterUnlink = faultpoint.New("ops.delete.after_unlink")
	fpIncrMidRewrite    = faultpoint.New("ops.incr.mid_rewrite") // inside a seqlock write section
)

// Ctx is the per-thread operation context: the thread's allocator cache,
// its lock-owner identity, its statistics slot, and the library-private
// scratch buffers into which client arguments are captured before any lock
// is acquired (the §3.4 fault-tolerance idiom — the key_prot/dat_prot
// buffers of Fig. 4). A Ctx must be used by one thread at a time.
//
// An operation enters through Do or ExecBatch as a BatchOp (batch.go).
// Get, GetAppend and Set are fronts over the same inner forms, and MGet is
// one ExecBatch.
//
// The padding at each end keeps the words an operation writes (opDepth,
// nowCache, latN, ...) off the cache lines of whatever the allocator
// places beside the context — another thread's context, most often.
type Ctx struct {
	_     [64]byte
	s     *Store
	cache *ralloc.Cache
	owner uint64
	slot  uint64 // statistics slot this context counts into

	evictCursor uint64
	opDepth     int
	opWord      uint64 // heap offset of the slot op word enterOp set; 0 = counted in the gate word
	gateGen     uint64 // gate generation observed at a counted enterOp (see exitOp)
	rdSlot      uint64 // optimistic-reader announcement slot; 0 = none
	rdEpoch     uint64 // epoch this context announced in its slot (see endRead)
	latN        uint64 // operations seen since creation (latency sampling)
	latSlot     uint64 // latency-histogram slot this context records into
	nowCache    int64  // store clock cached for the current admission (see now)
	nowOK       bool
	statDefer   bool // accumulate stats in statLocal instead of shared slots
	statLocal   [numStatCounters]int64
	batchSlots  []opSlot  // per-op scratch reused across batches (keypass.go)
	mgetOps     []BatchOp // MGet's batch and its results, reused across calls
	mgetRes     []BatchResult
	keyArena    []byte // a batch's captured keys, back to back
	touched     uint64 // sink for the key pass's loads

	// deadSelf reports whether this context's own owner token has been
	// declared dead by the liveness oracle — i.e. this goroutine is a
	// watchdog-reaped zombie whose locks the repair coordinator broke.
	// Built once at NewCtx so lock spins don't allocate a closure per call.
	deadSelf func() bool

	// AbortCheck, when set, is polled by long-running dispatch loops
	// (ExecBatch, between operations) and makes them return early with
	// ErrCallAborted on the remaining operations when it reports true. The
	// session layer wires it to the watchdog's cooperative abort request
	// (hodor.Session.AbortRequested), so an over-budget batch can retire
	// cleanly — results for the executed prefix, typed errors for the rest
	// — instead of being reaped and repaired.
	AbortCheck func() bool

	// forceSeqRetries injects this many artificial validation failures
	// into each optimistic lookup, so tests can deterministically drive
	// the retry loop and the lock fallback.
	forceSeqRetries int

	// UnsafeIncrSkipSeqlock seeds a known linearizability violation: the
	// in-place increment rewrite skips its seqlock bracket and tears the
	// value write in two. It exists solely so the model-checking harness
	// can prove it detects (and shrinks) real violations — the "mutation
	// mode" self-test. Never set it outside that harness.
	UnsafeIncrSkipSeqlock bool

	keyBuf   []byte
	valBuf   []byte
	auxBuf   []byte
	evictBuf []byte
	_        [64]byte
}

// loadChainHead reads a bucket's first item; loadChainNext follows hNext.
func loadChainHead(s *Store, bucket uint64) uint64 { return ralloc.LoadPptr(s.H, bucket) }
func loadChainNext(s *Store, it uint64) uint64     { return ralloc.LoadPptr(s.H, it+itHNext) }

// setChainNext stores an unpublished item's chain link, relaxed: hNext is
// the block's first word, which a ralloc pop that lost its CAS may still be
// reading as a free-list link. The bucket store that publishes the item
// orders it for readers.
func setChainNext(s *Store, it, next uint64) { ralloc.RelaxedStorePptr(s.H, it+itHNext, next) }

// chainPred returns the address of the link in bucket's chain that points
// at it, and cur == it, or cur == 0 when it is not on the chain. A cyclic
// (corrupt) chain panics into a full repair.
func (s *Store) chainPred(bucket, it uint64) (prevAddr, cur uint64) {
	prevAddr = bucket
	cur = loadChainHead(s, bucket)
	for steps := 0; cur != 0 && cur != it; steps++ {
		if steps >= maxRepairChain {
			panic("core: bucket chain cycle (corruption)")
		}
		prevAddr = cur + itHNext
		cur = ralloc.LoadPptr(s.H, prevAddr)
	}
	return prevAddr, cur
}

// NewCtx creates an operation context. owner must be a nonzero token unique
// to the calling thread (proc.Thread.LockOwner provides one). The context
// claims an optimistic-reader slot if one is free; with none available it
// still works, it just serves every read through the locked path and
// counts its operations in the gate's shared word.
func (s *Store) NewCtx(owner uint64) *Ctx {
	c := &Ctx{
		s:     s,
		cache: s.A.NewCache(),
		owner: owner,
	}
	c.deadSelf = func() bool { return s.ownerIsDead(owner) }
	c.scatter(owner)
	c.claimReaderSlot()
	return c
}

// scatter picks the statistics and latency slots this context counts into
// from n: the index of its reader slot, which no other live context holds,
// or — slotless — its owner token. Tokens are PID<<20 | TID+1, so any
// modulus up to 2^20 reduces them to the thread number alone, and the first
// thread of every process would share one slot.
func (c *Ctx) scatter(n uint64) {
	c.slot = n % c.s.statSlots
	if c.s.latSlots != 0 {
		c.latSlot = n % c.s.latSlots
	}
}

// Slots reports the statistics and latency-histogram slots this context
// records into.
func (c *Ctx) Slots() (stats, latency uint64) { return c.slot, c.latSlot }

// lock acquires the heap-resident lock at off on behalf of this context.
// The spin consults the owner-liveness oracle: once this context has been
// declared dead (a watchdog-reaped zombie whose held locks the repair
// coordinator force-released), it must never win a lock again — it would
// mutate chains concurrently with the structural repair pass. The panic
// unwinds the call exactly like the crash that was already recorded for
// this token; hodor's trampoline recovers it.
func (c *Ctx) lock(off uint64) {
	if !c.s.H.LockAcquireAbort(off, c.owner, c.deadSelf) {
		panic(&FenceError{Op: "lock"})
	}
}

// tryLock is the non-blocking variant of lock, with the same rule: a
// reaped context never keeps a lock it happened to win.
func (c *Ctx) tryLock(off uint64) bool {
	if !c.s.H.LockTry(off, c.owner) {
		return false
	}
	if c.deadSelf() {
		c.s.H.AtomicStore64(off, 0)
		panic(&FenceError{Op: "tryLock"})
	}
	return true
}

// unlock releases a lock this context acquired. The release CASes against
// our own token rather than blind-storing zero: a zombie unwinding after
// its locks were force-released (and possibly re-acquired by a live
// thread) must leave the word alone. For a live context a failed CAS is a
// lock-discipline bug, exactly like shm.LockRelease on an unheld lock.
func (c *Ctx) unlock(off uint64) {
	if c.s.H.LockReleaseOwner(off, c.owner) {
		return
	}
	if !c.deadSelf() {
		panic("core: release of lock not held by this context")
	}
}

// Close flushes the context's allocator cache back to the shared heap and
// returns its optimistic-reader slot.
func (c *Ctx) Close() {
	c.enterOp()
	c.cache.Flush()
	c.exitOp()
	c.releaseReaderSlot()
}

// Store returns the store this context operates on.
func (c *Ctx) Store() *Store { return c.s }

// Owner returns the context's lock-owner token.
func (c *Ctx) Owner() uint64 { return c.owner }

func grow(buf *[]byte, n uint64) []byte {
	if uint64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

func (c *Ctx) scratch(n uint64) []byte { return grow(&c.evictBuf, n) }

// capture copies a client buffer into library-private scratch before any
// lock is taken, so that a concurrent client thread mutating (or unmapping)
// the argument cannot fault or corrupt the library mid-operation.
func (c *Ctx) capture(dst *[]byte, src []byte) []byte {
	b := grow(dst, uint64(len(src)))
	copy(b, src)
	return b
}

// now returns the store clock, unix seconds: the coarse clock (mono.Coarse,
// one load of a word no client can write; DESIGN.md §12 "Who reads the
// clock"), read at most once per gate admission (enterOp invalidates the
// cache at depth 1), so a batch of k operations shares one. An injected
// clock (SetClock) wins and is read afresh each admission.
func (c *Ctx) now() int64 {
	if !c.nowOK {
		if fn := c.s.nowFn; fn != nil {
			c.nowCache = fn()
		} else {
			c.nowCache = mono.Unix(mono.Coarse())
		}
		c.nowOK = true
	}
	return c.nowCache
}

// absExpiry converts a client exptime to an absolute unix time, with
// memcached's semantics: 0 = never; negative = already expired; values up
// to 30 days are relative to now; larger values are absolute timestamps.
const relativeExpiryCutoff = 60 * 60 * 24 * 30

func (c *Ctx) absExpiry(exptime int64) int64 {
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return c.now() - 1
	case exptime <= relativeExpiryCutoff:
		return c.now() + exptime
	default:
		return exptime
	}
}

// findLocked walks the bucket chain for key, unlinking it lazily if it has
// expired. Caller holds the item lock for hash.
//
// The walk is bounded and every matched item's header checksum is verified
// before its geometry fields are trusted: a corrupted chain degrades into a
// quarantined item or an escalation to full repair, never an unbounded loop
// or a value served from mismatched metadata.
func (c *Ctx) findLocked(key []byte, hash uint64) uint64 {
	s := c.s
	bucket := s.bucketFor(hash)
	it := loadChainHead(s, bucket)
	for steps := 0; it != 0; steps++ {
		if steps >= maxRepairChain {
			panic("core: bucket chain cycle (corruption)")
		}
		if s.keyEqual(it, key) {
			if !s.itemCheckValid(it) {
				c.quarantineCorruptLocked(it, bucket, s.seqOff(hash))
				return 0
			}
			if s.expired(it, c.now()) {
				c.unlinkLocked(it, hash)
				c.stat(statExpired, 1)
				return 0
			}
			return it
		}
		it = loadChainNext(s, it)
	}
	return 0
}

// Get retrieves the value stored under key, along with the client flags and
// CAS generation. The returned slice is freshly allocated client-visible
// memory (the plain-malloc output buffer of Fig. 4).
func (c *Ctx) Get(key []byte) ([]byte, uint32, uint64, error) {
	return c.GetAppend(nil, key)
}

// GetAppend is Get appending the value to dst (which may be nil), for
// callers that reuse buffers. It first attempts the lock-free optimistic
// lookup (seqread.go); only contended, expiring, bump-due or repeatedly
// invalidated lookups pay for the bucket lock.
func (c *Ctx) GetAppend(dst, key []byte) ([]byte, uint32, uint64, error) {
	k, hash, err := c.takeOne(key)
	if err != nil {
		return dst, 0, 0, err
	}
	return c.getAppend(dst, k, hash)
}

// getAppend is GetAppend's inner form, on a key already captured and
// hashed. Every op has such an inner form, and execBatchOne is the one
// place that dispatches to them (batch.go).
func (c *Ctx) getAppend(dst, k []byte, hash uint64) ([]byte, uint32, uint64, error) {
	defer c.opEnd(LatGet, c.opBegin())
	if flags, cas, vlen, found, ok := c.optGet(k, hash); ok {
		if !found {
			c.stat(statGetMisses, 1)
			return dst, 0, 0, ErrNotFound
		}
		c.stat(statGetHits, 1)
		return append(dst, c.valBuf[:vlen]...), flags, cas, nil
	}
	return c.getLockedAppend(dst, k, hash, false, 0)
}

// getLockedAppend is the locked read path: the correctness baseline the
// optimistic path falls back to, and the only retrieval that may write
// (lazy expiry in findLocked, the LRU bump, and the touch variant).
func (c *Ctx) getLockedAppend(dst, k []byte, hash uint64, touch bool, abs int64) ([]byte, uint32, uint64, error) {
	c.stat(statGetLocked, 1)
	s := c.s
	lock := s.itemLockOff(hash)
	c.lock(lock)
	it := c.findLocked(k, hash)
	if it == 0 {
		c.unlock(lock)
		c.stat(statGetMisses, 1)
		return dst, 0, 0, ErrNotFound
	}
	if touch {
		s.H.RelaxedStore32(it+itExptime, uint32(abs))
	}
	c.lruBump(hash, it, c.now())
	s.incref(it) // hold the item across the copy, as item_get does
	flags := s.H.Load32(it + itFlags)
	cas := s.H.Load64(it + itCASID)
	vlen := s.itemValLen(it)
	voff := s.itemValOff(it)
	c.unlock(lock)

	// Copy into a protected buffer while the reference is held, then
	// release the item before touching client-visible memory (Fig. 4).
	// The relaxed copy coexists with in-place value rewrites that may
	// start once the lock is released; holders of the current CAS
	// generation detect them, exactly as in the original design.
	prot := grow(&c.valBuf, vlen)
	s.H.AtomicReadBytes(voff, prot)
	c.decref(it)

	out := append(dst, prot...)
	c.stat(statGetHits, 1)
	return out, flags, cas, nil
}

// getAndTouchAppend retrieves the value under k and updates its expiry
// (memcached's "gat" command): one lock acquisition for both. The touch is
// a write, so this always runs the locked path.
func (c *Ctx) getAndTouchAppend(dst, k []byte, hash uint64, exptime int64) ([]byte, uint32, uint64, error) {
	defer c.opEnd(LatTouch, c.opBegin())
	c.stat(statTouches, 1)
	return c.getLockedAppend(dst, k, hash, true, c.absExpiry(exptime))
}

// storeMode selects among the memcached storage commands.
type storeMode int

const (
	modeSet storeMode = iota
	modeAdd
	modeReplace
	modeCAS
)

// storeKey stores value under k as mode says: unconditionally (Set), only
// if absent (Add), only if present (Replace), or only if the entry's CAS
// generation still equals cas (CAS).
func (c *Ctx) storeKey(mode storeMode, k []byte, hash uint64, value []byte, flags uint32, exptime int64, cas uint64) error {
	if len(value) > MaxValueLen {
		return ErrValueTooBig
	}
	defer c.opEnd(LatSet, c.opBegin())
	c.stat(statSets, 1)
	// Build the replacement item entirely before acquiring the lock; the
	// allocation may trigger eviction, which takes other locks by trylock.
	// The value moves once, from the caller's slice into the item (newItem).
	it, err := c.newItem(k, value, hash, flags, c.absExpiry(exptime), true)
	if err != nil {
		return err
	}
	fpStoreAfterAlloc.Maybe()
	s := c.s
	lock := s.itemLockOff(hash)
	c.lock(lock)
	fpStoreLocked.Maybe()
	old := c.findLocked(k, hash)
	switch {
	case mode == modeAdd && old != 0:
		c.unlock(lock)
		c.decref(it)
		return ErrExists
	case mode == modeReplace && old == 0:
		c.unlock(lock)
		c.decref(it)
		return ErrNotFound
	case mode == modeCAS:
		if old == 0 {
			c.unlock(lock)
			c.decref(it)
			return ErrNotFound
		}
		if s.H.Load64(old+itCASID) != cas {
			c.unlock(lock)
			c.decref(it)
			c.stat(statCASMismatch, 1)
			return ErrCASMismatch
		}
	}
	if old != 0 {
		// One seqlock section for the whole replacement: a separate
		// unlink+link pair opens a window where lock-free readers miss a
		// key that was never deleted.
		c.swapLocked(old, it, hash)
	} else {
		c.linkLocked(it, hash)
	}
	fpStoreAfterLink.Maybe()
	c.unlock(lock)
	return nil
}

// Set unconditionally stores value under key.
func (c *Ctx) Set(key, value []byte, flags uint32, exptime int64) error {
	k, hash, err := c.takeOne(key)
	if err != nil {
		return err
	}
	return c.storeKey(modeSet, k, hash, value, flags, exptime, 0)
}

// deleteKey removes k from the store.
func (c *Ctx) deleteKey(k []byte, hash uint64) error {
	defer c.opEnd(LatDelete, c.opBegin())
	c.stat(statDeletes, 1)
	s := c.s
	lock := s.itemLockOff(hash)
	c.lock(lock)
	it := c.findLocked(k, hash)
	if it == 0 {
		c.unlock(lock)
		return ErrNotFound
	}
	c.unlinkLocked(it, hash)
	fpDeleteAfterUnlink.Maybe()
	c.unlock(lock)
	c.stat(statDeleteHits, 1)
	return nil
}

// touchKey updates the expiry of an existing entry.
func (c *Ctx) touchKey(k []byte, hash uint64, exptime int64) error {
	defer c.opEnd(LatTouch, c.opBegin())
	c.stat(statTouches, 1)
	abs := c.absExpiry(exptime)
	s := c.s
	lock := s.itemLockOff(hash)
	c.lock(lock)
	defer c.unlock(lock)
	it := c.findLocked(k, hash)
	if it == 0 {
		return ErrNotFound
	}
	// Relaxed store: optimistic readers load this word without the lock.
	s.H.RelaxedStore32(it+itExptime, uint32(abs))
	c.lruBump(hash, it, c.now())
	return nil
}

// incrDecrKey adds delta to the ASCII-numeric value under k and returns
// the new value, or with decr subtracts it, saturating at zero (memcached
// semantics).
func (c *Ctx) incrDecrKey(k []byte, hash uint64, delta uint64, decr bool) (uint64, error) {
	defer c.opEnd(LatSet, c.opBegin())
	if decr {
		c.stat(statDecrs, 1)
	} else {
		c.stat(statIncrs, 1)
	}
	s := c.s
	lock := s.itemLockOff(hash)
	c.lock(lock)
	defer c.unlock(lock)
	it := c.findLocked(k, hash)
	if it == 0 {
		return 0, ErrNotFound
	}
	vlen := s.itemValLen(it)
	if vlen == 0 || vlen > 20 {
		return 0, ErrNotNumeric
	}
	buf := grow(&c.valBuf, vlen)
	s.H.ReadBytes(s.itemValOff(it), buf)
	old, ok := parseASCIIUint(buf)
	if !ok {
		return 0, ErrNotNumeric
	}
	var v uint64
	if decr {
		if delta > old {
			v = 0
		} else {
			v = old - delta
		}
	} else {
		v = old + delta // wraps at 2^64, as in memcached
	}
	rendered := strconv.AppendUint(c.auxBuf[:0], v, 10)
	c.auxBuf = rendered[:0]
	if uint64(len(rendered)) == vlen {
		if c.UnsafeIncrSkipSeqlock {
			// Mutation mode for the linearizability harness's self-test:
			// rewrite WITHOUT the seqlock bracket, torn into two halves
			// with a scheduling point in between, so a concurrent
			// optimistic reader can validate a half-rewritten value. The
			// checker must catch the resulting history violation.
			half := len(rendered) / 2
			s.H.AtomicWriteBytes(s.itemValOff(it), rendered[:half])
			runtime.Gosched()
			s.H.AtomicWriteBytes(s.itemValOff(it)+uint64(half), rendered[half:])
			s.H.RelaxedStore64(it+itValSum, valueSum(rendered))
			s.H.RelaxedStore64(it+itCASID, s.nextCAS())
			c.lruBump(hash, it, c.now())
			return v, nil
		}
		// Same width: rewrite in place under the lock, bracketed by the
		// stripe seqlock so concurrent lock-free readers cannot validate
		// a half-rewritten value.
		seq := s.seqOff(hash)
		s.H.SeqWriteBegin(seq)
		s.H.AtomicWriteBytes(s.itemValOff(it), rendered)
		fpIncrMidRewrite.Maybe()
		s.H.RelaxedStore64(it+itValSum, valueSum(rendered))
		s.H.RelaxedStore64(it+itCASID, s.nextCAS())
		s.H.SeqWriteEnd(seq)
		// The rewrite is a use: move the item up its LRU list like the
		// retrieval paths do, so hot counters are not evicted in FIFO
		// order. The item lock is held; lruBump takes the list lock.
		c.lruBump(hash, it, c.now())
		return v, nil
	}
	// Width changed: build a replacement item. We hold the item lock, so
	// the allocation must not block on other item locks (canEvict=false).
	flags := s.H.Load32(it + itFlags)
	exp := int64(s.H.Load32(it + itExptime))
	nit, err := c.newItem(k, rendered, hash, flags, exp, false)
	if err != nil {
		return 0, err
	}
	c.swapLocked(it, nit, hash)
	return v, nil
}

// pendKey appends data to an existing value, or with front prepends it,
// atomically with respect to concurrent operations on the same key.
func (c *Ctx) pendKey(k []byte, hash uint64, data []byte, front bool) error {
	defer c.opEnd(LatSet, c.opBegin())
	c.stat(statSets, 1)
	d := c.capture(&c.valBuf, data)
	s := c.s
	lock := s.itemLockOff(hash)
	c.lock(lock)
	defer c.unlock(lock)
	it := c.findLocked(k, hash)
	if it == 0 {
		return ErrNotFound
	}
	vlen := s.itemValLen(it)
	total := vlen + uint64(len(d))
	if total > MaxValueLen {
		return ErrValueTooBig
	}
	combined := grow(&c.auxBuf, total)
	if front {
		copy(combined, d)
		s.H.ReadBytes(s.itemValOff(it), combined[len(d):])
	} else {
		s.H.ReadBytes(s.itemValOff(it), combined[:vlen])
		copy(combined[vlen:], d)
	}
	flags := s.H.Load32(it + itFlags)
	exp := int64(s.H.Load32(it + itExptime))
	nit, err := c.newItem(k, combined, hash, flags, exp, false)
	if err != nil {
		return err
	}
	c.swapLocked(it, nit, hash)
	return nil
}

// FlushAll removes every entry from the store.
func (c *Ctx) FlushAll() {
	defer c.opEnd(LatMaint, c.opBegin())
	s := c.s
	for li := uint64(0); li < s.numItemLocks; li++ {
		lock := s.itemLocks + li*8
		c.lock(lock)
		s.forEachBucketLocked(li, func(bucket uint64) {
			for {
				it := loadChainHead(s, bucket)
				if it == 0 {
					break
				}
				c.unlinkLocked(it, s.itemHash(it))
			}
		})
		c.unlock(lock)
	}
	c.stat(statFlushes, 1)
}

func parseASCIIUint(b []byte) (uint64, bool) {
	// 2^64-1 = 18446744073709551615: a digit may be appended to v only if
	// the result still fits. Without the cutoff check a 20-digit value
	// ≥ 2^64 silently wraps and incr computes garbage; memcached treats
	// such a value as non-numeric.
	const cutoff = ^uint64(0) / 10
	var v uint64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		d := uint64(ch - '0')
		if v > cutoff || (v == cutoff && d > ^uint64(0)%10) {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}
