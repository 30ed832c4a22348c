// Package core implements the memcached key-value data plane as a
// shared-memory library: the paper's primary contribution. Everything the
// store needs — hash table, items, LRU lists, statistics, locks — lives in
// a Ralloc heap as position-independent data, so threads of any process
// that maps the heap can execute operations directly, with no server and no
// sockets.
//
// The structure mirrors the converted memcached of §3 of the paper:
//
//   - all pointers in the store are Ralloc pptrs (position independent);
//   - top-level structures are reachable from persistent roots, using the
//     fixed-location idiom of Fig. 2 (the LRU lock array) and the
//     extra-indirection idiom of Fig. 3 (the primary hash table, whose
//     location changes when it is resized);
//   - every lock is heap-resident and usable across processes (the
//     PTHREAD_PROCESS_SHARED conversion);
//   - the LRU is decoupled from the allocator: instead of one list per slab
//     class, items are scattered over a set of lists chosen by key hash,
//     because a single list "caused unacceptable lock contention at high
//     thread counts";
//   - request statistics are scattered across the slots of a shared array;
//     retrieval sums the whole array;
//   - following §3.4, operations copy client-supplied keys and values into
//     library-allocated buffers *before* acquiring any lock, so a fault on
//     client memory can never occur while shared state is inconsistent.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
)

// Persistent root IDs (the RPMRoot enumeration of Figs. 2 and 3).
const (
	RootConfig    = 0 // the store's configuration block
	RootLRULocks  = 1 // fixed-location array (Fig. 2 idiom)
	RootPrimaryHT = 2 // storage cell for the movable hash table (Fig. 3 idiom)
	RootLatency   = 3 // scattered latency-histogram matrix (latency.go)
)

// Limits, matching memcached's defaults.
const (
	MaxKeyLen   = 250
	MaxValueLen = 1 << 20
)

// Operation errors (the memcached_return_t values clients see).
var (
	ErrNotFound    = errors.New("core: key not found")
	ErrExists      = errors.New("core: key already exists")
	ErrCASMismatch = errors.New("core: cas value mismatch")
	ErrNotNumeric  = errors.New("core: value is not a number")
	ErrKeyTooLong  = fmt.Errorf("core: key exceeds %d bytes", MaxKeyLen)
	ErrValueTooBig = fmt.Errorf("core: value exceeds %d bytes", MaxValueLen)
	ErrNoSpace     = errors.New("core: out of memory even after eviction")
	// ErrCallAborted lands on the operations of a batch that were skipped
	// because the watchdog requested a cooperative abort mid-dispatch (the
	// live-deadline escalation's middle rung). Operations before the abort
	// point executed normally; these never ran and may be retried.
	ErrCallAborted = errors.New("core: call aborted by watchdog deadline")
)

// Options configures a new store.
type Options struct {
	// HashPower is log2 of the initial number of buckets. The paper's
	// evaluation fixes the table at 2^25; scaled-down benches use less.
	HashPower uint
	// NumItemLocks is the size of the bucket-lock stripe (power of two,
	// at most the number of buckets).
	NumItemLocks uint64
	// NumLRUs is the number of hash-selected LRU lists. 1 reproduces the
	// contended single-list design the paper abandoned (ablation).
	NumLRUs uint64
	// MemLimit is the eviction watermark in bytes of live allocation
	// (the -m limit; the paper used 60 GB). 0 means 7/8 of heap capacity.
	MemLimit uint64
	// FixedSize disables hash-table resizing, the configuration the paper
	// benchmarked (their background resizer was not yet working; ours
	// works but benches match the paper).
	FixedSize bool
	// StatSlots is the number of scattered statistics slots.
	StatSlots uint64
	// LockedStats reproduces the original memcached design the paper
	// abandoned: all statistics updates serialize on one lock (ablation).
	LockedStats bool
	// ReaderSlots is the number of optimistic-reader announcement slots in
	// the shared heap. Each Ctx claims one at creation, counts its
	// operations in it (gate.go) and takes its statistics and latency slots
	// from its index; a Ctx that finds none free never uses the lock-free
	// read path and counts in the gate's shared word.
	ReaderSlots uint64
	// LatencySampleEvery records the latency of one in every N operations
	// per context (rounded up to a power of two; 0 means 8). Sampling keeps
	// the two clock reads off most operations, whose cost would otherwise
	// rival the operation itself. 1 records every operation.
	LatencySampleEvery uint64
	// DisableLatency creates the store with latency recording off (the
	// ablation baseline). The histogram matrix is still allocated so the
	// heap layout — and hence benchmarks' allocator behaviour — matches.
	DisableLatency bool
}

func (o *Options) fill(cap uint64) {
	if o.HashPower == 0 {
		o.HashPower = 16
	}
	if o.NumItemLocks == 0 {
		o.NumItemLocks = 1024
	}
	for o.NumItemLocks > uint64(1)<<o.HashPower {
		o.NumItemLocks /= 2
	}
	if o.NumLRUs == 0 {
		o.NumLRUs = 32
	}
	if o.MemLimit == 0 {
		o.MemLimit = cap - cap/8
	}
	if o.StatSlots == 0 {
		o.StatSlots = 64
	}
	if o.ReaderSlots == 0 {
		o.ReaderSlots = 64
	}
	if o.LatencySampleEvery == 0 {
		o.LatencySampleEvery = 8
	}
	// Round the sampling period up to a power of two so the hot path can
	// mask instead of divide.
	for o.LatencySampleEvery&(o.LatencySampleEvery-1) != 0 {
		o.LatencySampleEvery++
	}
}

// Config-block field offsets (relative to the block's base).
const (
	cfgNumItemLocks  = 0
	cfgNumLRUs       = 8
	cfgMemLimit      = 16
	cfgCASCounter    = 24 // atomic
	cfgItemLocks     = 32 // pptr
	cfgLRULocks      = 40 // pptr
	cfgLRUData       = 48 // pptr: per-LRU {head pptr, tail pptr}
	cfgStats         = 56 // pptr
	cfgHTStorage     = 64 // pptr to the Fig. 3 storage cell
	cfgFixedSize     = 72
	cfgStatSlots     = 80
	cfgLockedStats   = 88
	cfgStatsLock     = 96  // heap-resident lock word for LockedStats mode
	cfgGate          = 104 // checkpoint gate: barrier bit + slotless active-op count
	cfgSeqLocks      = 112 // pptr: per-stripe seqlock array (one word per item lock)
	cfgReaders       = 120 // pptr: optimistic-reader slot array
	cfgNumReaders    = 128
	cfgGraveHead     = 136 // atomic: head of the deferred-free list (raw item offset)
	cfgGraveLen      = 144 // atomic: number of quarantined items
	cfgLatency       = 152 // pptr: scattered latency-histogram matrix
	cfgLatSlots      = 160
	cfgLatSampleMask = 168 // sample period minus one (period is a power of two)
	cfgLatEnabled    = 176
	cfgSize          = 184
)

// Hash-table storage cell (Fig. 3): the movable table behind one more pptr.
const (
	htTable     = 0 // pptr to the bucket array
	htHashPower = 8
)

// Store is a handle on a shared K-V store. Multiple Store handles — one per
// process — may address the same heap; all state lives in shared memory.
type Store struct {
	A *ralloc.Allocator
	H *shm.Heap

	// Immutable configuration, cached from the config block at attach.
	numItemLocks uint64
	numLRUs      uint64
	memLimit     uint64
	statSlots    uint64
	fixedSize    bool
	lockedStats  bool

	cfg        uint64 // config block offset
	itemLocks  uint64 // lock array offset
	lruLocks   uint64
	lruData    uint64
	stats      uint64
	htStorage  uint64
	seqLocks   uint64 // seqlock array offset, one word per item-lock stripe
	readers    uint64 // optimistic-reader slot array offset
	numReaders uint64
	latency    uint64 // latency-histogram matrix offset (0 = none)
	latSlots   uint64
	latMask    uint64 // sample period minus one
	latEnabled bool

	// nowFn, when set (SetClock), replaces the store clock, unix seconds.
	// Unset, it is mono.Unix of the coarse clock (Ctx.now).
	nowFn func() int64

	// aliveFn is the owner-liveness oracle (SetOwnerLiveness): grave
	// reaping and crash repair use it to expire announcements and break
	// locks whose recorded owner can no longer execute. Atomic because
	// the hot paths consult it concurrently with (re)installation.
	// Unset = everyone is presumed alive.
	aliveFn atomic.Pointer[func(owner uint64) bool]
}

// Create formats a new store inside a freshly formatted heap.
func Create(a *ralloc.Allocator, opts Options) (*Store, error) {
	if a.GetRoot(RootConfig) != 0 {
		return nil, fmt.Errorf("core: heap already contains a store (use Attach)")
	}
	opts.fill(a.Capacity())
	if opts.NumItemLocks&(opts.NumItemLocks-1) != 0 {
		return nil, fmt.Errorf("core: NumItemLocks %d is not a power of two", opts.NumItemLocks)
	}
	c := a.NewCache()
	defer c.Flush()
	h := a.Heap()

	cfg, err := c.Calloc(cfgSize)
	if err != nil {
		return nil, err
	}
	itemLocks, err := c.Calloc(opts.NumItemLocks * shm.LockWordSize)
	if err != nil {
		return nil, err
	}
	lruLocks, err := c.Calloc(opts.NumLRUs * shm.LockWordSize)
	if err != nil {
		return nil, err
	}
	lruData, err := c.Calloc(opts.NumLRUs * 16)
	if err != nil {
		return nil, err
	}
	stats, err := c.Calloc(opts.StatSlots * statSlotSize)
	if err != nil {
		return nil, err
	}
	storage, err := c.Calloc(htSizeExpanded)
	if err != nil {
		return nil, err
	}
	table, err := c.Calloc((uint64(1) << opts.HashPower) * 8)
	if err != nil {
		return nil, err
	}
	seqLocks, err := c.Calloc(opts.NumItemLocks * 8)
	if err != nil {
		return nil, err
	}
	readers, err := c.Calloc(opts.ReaderSlots * readerSlotSize)
	if err != nil {
		return nil, err
	}
	latency, err := c.Calloc(latencySlots * latSlotStride)
	if err != nil {
		return nil, err
	}

	h.Store64(cfg+cfgNumItemLocks, opts.NumItemLocks)
	h.Store64(cfg+cfgNumLRUs, opts.NumLRUs)
	h.Store64(cfg+cfgMemLimit, opts.MemLimit)
	h.Store64(cfg+cfgCASCounter, 0)
	ralloc.StorePptr(h, cfg+cfgItemLocks, itemLocks)
	ralloc.StorePptr(h, cfg+cfgLRULocks, lruLocks)
	ralloc.StorePptr(h, cfg+cfgLRUData, lruData)
	ralloc.StorePptr(h, cfg+cfgStats, stats)
	ralloc.StorePptr(h, cfg+cfgHTStorage, storage)
	if opts.FixedSize {
		h.Store64(cfg+cfgFixedSize, 1)
	}
	h.Store64(cfg+cfgStatSlots, opts.StatSlots)
	if opts.LockedStats {
		h.Store64(cfg+cfgLockedStats, 1)
	}
	ralloc.StorePptr(h, cfg+cfgSeqLocks, seqLocks)
	ralloc.StorePptr(h, cfg+cfgReaders, readers)
	h.Store64(cfg+cfgNumReaders, opts.ReaderSlots)
	ralloc.StorePptr(h, cfg+cfgLatency, latency)
	h.Store64(cfg+cfgLatSlots, latencySlots)
	h.Store64(cfg+cfgLatSampleMask, opts.LatencySampleEvery-1)
	if !opts.DisableLatency {
		h.Store64(cfg+cfgLatEnabled, 1)
	}

	ralloc.StorePptr(h, storage+htTable, table)
	h.Store64(storage+htHashPower, uint64(opts.HashPower))

	a.SetRoot(RootConfig, cfg)
	a.SetRoot(RootLRULocks, lruLocks)
	a.SetRoot(RootPrimaryHT, storage)
	a.SetRoot(RootLatency, latency)
	return attach(a, cfg)
}

// Attach opens an existing store in the heap — what a client process does
// on startup, and what a restarted bookkeeper does after reloading the
// heap image (the "on restart" paths of Figs. 2 and 3).
func Attach(a *ralloc.Allocator) (*Store, error) {
	cfg := a.GetRoot(RootConfig)
	if cfg == 0 {
		return nil, fmt.Errorf("core: heap contains no store")
	}
	return attach(a, cfg)
}

func attach(a *ralloc.Allocator, cfg uint64) (*Store, error) {
	h := a.Heap()
	s := &Store{
		A:            a,
		H:            h,
		cfg:          cfg,
		numItemLocks: h.Load64(cfg + cfgNumItemLocks),
		numLRUs:      h.Load64(cfg + cfgNumLRUs),
		memLimit:     h.Load64(cfg + cfgMemLimit),
		statSlots:    h.Load64(cfg + cfgStatSlots),
		fixedSize:    h.Load64(cfg+cfgFixedSize) != 0,
		lockedStats:  h.Load64(cfg+cfgLockedStats) != 0,
		itemLocks:    ralloc.LoadPptr(h, cfg+cfgItemLocks),
		lruLocks:     ralloc.LoadPptr(h, cfg+cfgLRULocks),
		lruData:      ralloc.LoadPptr(h, cfg+cfgLRUData),
		stats:        ralloc.LoadPptr(h, cfg+cfgStats),
		htStorage:    ralloc.LoadPptr(h, cfg+cfgHTStorage),
		seqLocks:     ralloc.LoadPptr(h, cfg+cfgSeqLocks),
		readers:      ralloc.LoadPptr(h, cfg+cfgReaders),
		numReaders:   h.Load64(cfg + cfgNumReaders),
		latency:      ralloc.LoadPptr(h, cfg+cfgLatency),
		latSlots:     h.Load64(cfg + cfgLatSlots),
		latMask:      h.Load64(cfg + cfgLatSampleMask),
	}
	s.latEnabled = h.Load64(cfg+cfgLatEnabled) != 0 && s.latency != 0 && s.latSlots != 0
	if s.numItemLocks == 0 || s.numLRUs == 0 || s.seqLocks == 0 {
		return nil, fmt.Errorf("core: corrupt store configuration")
	}
	return s, nil
}

// ResetGate clears the checkpoint gate and the optimistic-reader slots.
// Call it when reopening a heap image from disk: a checkpoint is written
// with the quiesce barrier raised, and neither the operations counted in
// the gate and its slots nor the reader sections announced in the slots
// exist after a reload (a slot left claimed or mid-section by a dead
// process would otherwise pin the slot and stall grave reaping forever).
// Never call it on a store with live clients.
func (s *Store) ResetGate() {
	s.H.AtomicStore64(s.cfg+cfgGate, 0)
	for i := uint64(0); i < s.numReaders; i++ {
		slot := s.readerSlotOff(i)
		s.H.AtomicStore64(slot+readerSlotOwner, 0)
		s.H.AtomicStore64(slot+readerSlotEpoch, 0)
		s.H.AtomicStore64(slot+readerSlotOp, 0)
	}
}

// SetClock overrides the store's time source (tests and expiry benches):
// every admission then reads now instead of the coarse clock.
func (s *Store) SetClock(now func() int64) { s.nowFn = now }

// MemLimit returns the eviction watermark in bytes.
func (s *Store) MemLimit() uint64 { return s.memLimit }

// HashPower returns the current log2 table size. Atomic: callers (the
// maintainer, stats) read it without holding locks while a resize may be
// publishing a new value.
func (s *Store) HashPower() uint {
	return uint(s.H.AtomicLoad64(s.htStorage + htHashPower))
}

// table returns the bucket-array offset and current mask. Callers must hold
// the relevant item lock (or all of them) for a stable view across resize.
func (s *Store) table() (uint64, uint64) {
	t := ralloc.LoadPptr(s.H, s.htStorage+htTable)
	mask := (uint64(1) << s.H.Load64(s.htStorage+htHashPower)) - 1
	return t, mask
}

func (s *Store) itemLockOff(h uint64) uint64 {
	return s.itemLocks + (h&(s.numItemLocks-1))*shm.LockWordSize
}

// seqOff returns the seqlock word guarding hash's bucket chains. The
// seqlock array is striped exactly like the item locks, so the writer
// holding the item lock for hash is the only possible bumper of this word.
func (s *Store) seqOff(h uint64) uint64 {
	return s.seqLocks + (h&(s.numItemLocks-1))*8
}

func (s *Store) nextCAS() uint64 {
	return s.H.Add64(s.cfg+cfgCASCounter, 1)
}

// CASCounter reads the current CAS generation counter. It is a plain
// atomic load with no gate crossing, so it stays safe on a poisoned
// store — the shard supervisor uses it to carry the dead store's CAS
// high-water mark into a rebuilt replacement.
func (s *Store) CASCounter() uint64 {
	return s.H.AtomicLoad64(s.cfg + cfgCASCounter)
}

// SeedCAS raises the CAS generation counter to at least base. A sharded
// cluster seeds each shard's store with a disjoint base (shard index in
// the high bits) so CAS tokens are unique across the whole cluster, not
// just per store — reopening an existing image is a no-op because the
// persisted counter is already past its base.
func (s *Store) SeedCAS(base uint64) {
	for {
		cur := s.H.AtomicLoad64(s.cfg + cfgCASCounter)
		if cur >= base || s.H.CAS64(s.cfg+cfgCASCounter, cur, base) {
			return
		}
	}
}
