// Package memcached is the public API of the protected-library memcached:
// the paper's system as a downstream user consumes it.
//
// A store is created (or reopened from its backing file) by a bookkeeping
// process — see Bookkeeper — which owns the shared heap, runs maintenance
// (eviction, expiry, optional resizing), and flushes the heap back to the
// file on shutdown. Client processes attach with NewClientProcess, which
// runs the Hodor loader: it scans the client binary for stray wrpkru
// instructions, links the library's trampolines, and runs libmemcached
// initialization under the store owner's effective UID. Each client thread
// then opens a Session and performs K-V operations as direct, trampolined
// function calls into the library — no sockets, no server threads.
//
// Two APIs are provided, as in §3.1 of the paper: the Session methods here
// (the new API, no memcached_st), and package memcached/compat (a drop-in
// libmemcached-style API that accepts and ignores connection configuration,
// and can be switched between the protected library and a socket backend).
package memcached

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/hodor"
	"plibmc/internal/mono"
	"plibmc/internal/pku"
	"plibmc/internal/proc"
	"plibmc/internal/ralloc"
	"plibmc/internal/shm"
)

// LibraryName is the protected library's name in loader output.
const LibraryName = "libmemcached-plib"

// ownerUID is the store owner; library initialization runs with this
// effective UID (paper §3.3).
const ownerUID = 0

// Config configures a store.
type Config struct {
	// HeapBytes is the shared heap size (the paper gave Ralloc 60 GB;
	// scale to taste). Default 64 MiB.
	HeapBytes uint64
	// Path is the backing file. Empty means in-memory only (no Flush).
	Path string
	// HashPower, NumItemLocks, MemLimit and FixedSize mirror the core
	// store options of the same names; zero values choose defaults.
	HashPower    uint
	NumItemLocks uint64
	MemLimit     uint64
	FixedSize    bool
	// LatencySampleEvery is the per-context latency sampling period
	// (1 = record every operation); zero chooses the core default.
	LatencySampleEvery uint64
	// CallTimeout bounds in-library execution for killed processes. Zero
	// means hodor's default (1s).
	CallTimeout time.Duration
	// RecoveryGrace bounds both how long a call blocks while the store
	// is being repaired and how long the repair pass waits for surviving
	// calls to drain. Zero means hodor's default (5s).
	RecoveryGrace time.Duration

	// LiveCallBudget is the per-call execution budget for live sessions
	// (gate hardening): past it the watchdog escalates warn → abort-request
	// → reap+repair, so a tenant spinning inside the gate is evicted
	// instead of wedging everyone. Zero disables live-deadline enforcement.
	LiveCallBudget time.Duration
	// MaxInFlight caps concurrently admitted calls across all tenants;
	// excess calls fail fast with hodor.ErrOverloaded (retryable
	// backpressure). Zero means unlimited.
	MaxInFlight int
	// TenantQuota caps concurrently admitted calls per client process, so
	// one noisy tenant cannot starve its siblings of gate slots. Zero
	// means unlimited.
	TenantQuota int
}

// Bookkeeper is the bookkeeping process: it creates or reopens the store,
// keeps it healthy, and flushes it on shutdown. It "remains alive as long
// as its K-V store is in use."
type Bookkeeper struct {
	cfg     Config
	heap    *shm.Heap
	pt      *pku.PageTable
	dom     *hodor.Domain
	lib     *hodor.Library
	alloc   *ralloc.Allocator
	store   *core.Store
	proc    *proc.Process
	maint   *core.Maintainer
	baseSeq atomic.Uint64

	// vt multiplexes per-tenant virtual protection keys onto the hardware
	// keys left over after the library's own; tenants holds the sessions
	// (*Session keys) whose tenant domain is not yet torn down, which the
	// recovery sweep walks to tear down domains of dead or reaped tenants.
	vt      *pku.VTable
	tenants sync.Map

	// repairMu serializes the mutually exclusive heavyweight passes:
	// structural repair, maintenance, and checkpointing.
	repairMu sync.Mutex

	// ckptGen is the generation of the most recent durable image; the next
	// checkpoint writes ckptGen+1. Guarded by repairMu (checkpoints are
	// serialized through it).
	ckptGen uint64

	repairReportMu sync.Mutex
	lastRepair     core.RepairReport
	repairs        int
	// Checkpoint accounting (exported through the metrics plane).
	ckpts         int
	ckptFailures  int
	ckptLastErr   string
	ckptLastErrAt time.Time
	ckptLastGen   uint64
	ckptLastTime  time.Duration
	ckptLastAt    time.Time
	// Cumulative recovery-event counters across all repair passes, and the
	// wall-clock cost of the most recent quarantine→repair→resume cycle.
	locksBroken    int
	readersRetired int
	histsRepaired  int
	lastRepairTime time.Duration
	lastRepairAt   time.Time

	maintLoop, ckptLoop loop
	clockOnce           sync.Once
}

func (c *Config) fill() {
	if c.HeapBytes == 0 {
		c.HeapBytes = 64 << 20
	}
}

// CreateStore formats a fresh store.
func CreateStore(cfg Config) (*Bookkeeper, error) {
	cfg.fill()
	heap := shm.New(cfg.HeapBytes)
	alloc, err := ralloc.Format(heap)
	if err != nil {
		return nil, err
	}
	store, err := core.Create(alloc, core.Options{
		HashPower:          cfg.HashPower,
		NumItemLocks:       cfg.NumItemLocks,
		MemLimit:           cfg.MemLimit,
		FixedSize:          cfg.FixedSize,
		LatencySampleEvery: cfg.LatencySampleEvery,
	})
	if err != nil {
		return nil, err
	}
	return newBookkeeper(cfg, heap, alloc, store)
}

// OpenStore reloads a store from its backing file — the restart path: the
// contents are intact because everything in the heap is position
// independent. All image slots for the path (the base file plus the .a/.b
// checkpoint slots) are considered, newest verifying generation first; a
// candidate that fails checksum validation or semantic verification
// (allocator fsck, store attach) is skipped in favour of the next-newest,
// so a crash mid-checkpoint or a decayed newest image costs only the
// delta back to the previous checkpoint.
func OpenStore(cfg Config) (*Bookkeeper, error) {
	cfg.fill()
	if cfg.Path == "" {
		return nil, fmt.Errorf("memcached: OpenStore requires a backing file path")
	}
	cands := shm.ImageCandidates(cfg.Path)
	if len(cands) == 0 {
		return nil, fmt.Errorf("memcached: no heap image found at %s", cfg.Path)
	}
	var errs []string
	for _, cand := range cands {
		b, err := openCandidate(cfg, cand)
		if err == nil {
			return b, nil
		}
		errs = append(errs, fmt.Sprintf("%s: %v", cand.Path, err))
	}
	return nil, fmt.Errorf("memcached: no heap image for %s verified: %s",
		cfg.Path, strings.Join(errs, "; "))
}

// openCandidate runs one image candidate through the full validation
// chain: checksum-verified load, allocator fsck, store attach.
func openCandidate(cfg Config, cand shm.Candidate) (*Bookkeeper, error) {
	if cand.Err != nil {
		return nil, cand.Err
	}
	heap, info, err := shm.LoadImage(cand.Path)
	if err != nil {
		return nil, err
	}
	alloc, err := ralloc.Open(heap)
	if err != nil {
		return nil, err
	}
	// fsck the reloaded heap before any client touches it.
	if _, err := alloc.Check(); err != nil {
		return nil, fmt.Errorf("memcached: reloaded heap failed verification: %w", err)
	}
	store, err := core.Attach(alloc)
	if err != nil {
		return nil, err
	}
	// A checkpoint image carries a raised quiesce barrier; no operation
	// from the previous life survives a reload, so clear the gate.
	store.ResetGate()
	b, err := newBookkeeper(cfg, heap, alloc, store)
	if err != nil {
		return nil, err
	}
	b.ckptGen = info.Generation
	return b, nil
}

func newBookkeeper(cfg Config, heap *shm.Heap, alloc *ralloc.Allocator, store *core.Store) (*Bookkeeper, error) {
	pt := pku.NewPageTable(heap)
	dom, err := hodor.NewDomain(heap, pt)
	if err != nil {
		return nil, err
	}
	// The entire Ralloc heap is library-private: application code cannot
	// touch any of it outside a trampolined call.
	if err := dom.ProtectAll(); err != nil {
		return nil, err
	}
	lib := hodor.NewLibrary(LibraryName, ownerUID, dom)
	lib.CallTimeout = cfg.CallTimeout
	lib.RecoveryGrace = cfg.RecoveryGrace
	lib.LiveCallBudget = cfg.LiveCallBudget
	lib.MaxInFlight = cfg.MaxInFlight
	lib.TenantQuota = cfg.TenantQuota
	registerEntryPoints(lib)

	b := &Bookkeeper{
		cfg: cfg, heap: heap, pt: pt, dom: dom, lib: lib,
		alloc: alloc, store: store,
	}
	// Per-tenant protection domains (each trampolined session gets its own
	// virtual protection key and a page-sized arena, isolating tenants from
	// each other and not just from the application) multiplex over the
	// hardware keys the library does not use; the vtable reserves one more
	// as the fence backing unmapped tenant keys.
	if b.vt, err = pku.NewVTable(pt); err != nil {
		return nil, err
	}
	b.baseSeq.Store(1)
	bkProc, err := proc.NewProcess(ownerUID, heap, b.nextBase())
	if err != nil {
		return nil, err
	}
	b.proc = bkProc
	lib.Register(bkProc)
	b.maint = store.NewMaintainer(bkProc.NewThread().LockOwner())
	lib.OnRecover(b.repairStore)
	// The liveness oracle is hodor's: a token reads dead only when that
	// thread can never again touch the heap.
	store.SetOwnerLiveness(func(token uint64) bool { _, defunct := lib.TokenState(token); return !defunct })
	mono.Hold() // the coarse clock ticks while the store is open
	return b, nil
}

// releaseClock drops the store's hold on the coarse clock, once: at
// Shutdown, or when a rebuild retires a poisoned store.
func (b *Bookkeeper) releaseClock() { b.clockOnce.Do(mono.Release) }

// nextBase hands out a distinct page-aligned virtual base for each process
// mapping, so no two processes see the heap at the same address.
func (b *Bookkeeper) nextBase() uint64 {
	n := b.baseSeq.Add(1)
	span := (b.heap.Size() + shm.PageSize) &^ uint64(shm.PageSize-1)
	return 0x7000_0000_0000 + n*span
}

// ownCtx opens a context on a fresh thread of the bookkeeper's own
// (registered) process, for work outside any client's call: repair, the
// tenant sweep and the migrator's walks, whose locks no repair breaks.
func (b *Bookkeeper) ownCtx() *core.Ctx { return b.store.NewCtx(b.proc.NewThread().LockOwner()) }

// Store exposes the underlying core store (stats, clock injection).
func (b *Bookkeeper) Store() *core.Store { return b.store }

// Allocator exposes the Ralloc handle (capacity queries).
func (b *Bookkeeper) Allocator() *ralloc.Allocator { return b.alloc }

// Library exposes the Hodor library handle.
func (b *Bookkeeper) Library() *hodor.Library { return b.lib }

// VTable exposes the per-tenant protection-key table. Enforcement tests use
// it to inspect mappings.
func (b *Bookkeeper) VTable() *pku.VTable { return b.vt }

// Domain exposes the library's protection domain (guarded heap access for
// enforcement tests).
func (b *Bookkeeper) Domain() *hodor.Domain { return b.dom }

// Stats returns a snapshot of the store's counters.
func (b *Bookkeeper) Stats() core.Stats { return b.store.Stats() }

// RunMaintenanceOnce performs one cleaning pass (eviction to the watermark,
// expiry sweep, resize check) and a watchdog sweep over in-flight calls.
// While the store is quarantined for repair the cleaning pass is skipped
// (the repair coordinator owns the heap); a maintenance pass that panics
// — the bookkeeper's own thread faulting inside library state — is
// converted into a recovery cycle like any client crash, with a fresh
// maintainer replacing the wreckage.
func (b *Bookkeeper) RunMaintenanceOnce() core.MaintReport {
	b.lib.WatchdogSweep(time.Now())
	if b.lib.Recovering() || b.lib.Poisoned() {
		return core.MaintReport{}
	}
	b.repairMu.Lock()
	defer b.repairMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			token := b.maint.Ctx().Owner()
			b.maint = b.store.NewMaintainer(b.proc.NewThread().LockOwner())
			b.lib.TriggerRecovery(token, r)
		}
	}()
	return b.maint.RunOnce()
}

// StartMaintenance runs maintenance on an interval until StopMaintenance.
// Idempotent while running.
func (b *Bookkeeper) StartMaintenance(interval time.Duration) {
	b.maintLoop.start(interval, func() { b.RunMaintenanceOnce() })
}

// StopMaintenance stops the background maintenance loop.
func (b *Bookkeeper) StopMaintenance() { b.maintLoop.stop() }

// loop is one background ticker loop: start runs fn once per interval
// until stop, which waits out the pass in flight. Safe for concurrent use:
// the mutex is held across stop's wait, so at most one goroutine runs a
// loop's passes, and start on a running loop is a no-op.
type loop struct {
	mu   sync.Mutex
	quit chan struct{}
	done chan struct{}
}

func (l *loop) start(interval time.Duration, fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.quit != nil {
		return
	}
	quit, done := make(chan struct{}), make(chan struct{})
	l.quit, l.done = quit, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

func (l *loop) stop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.quit == nil {
		return
	}
	close(l.quit)
	<-l.done
	l.quit, l.done = nil, nil
}

// Shutdown stops maintenance and checkpointing and writes a final
// checkpoint image (if a backing file is configured), so a subsequent
// OpenStore resumes with contents intact. The final image goes through the
// same generation-stamped machinery as live checkpoints, so it is always
// the newest generation on disk.
func (b *Bookkeeper) Shutdown() error {
	defer b.releaseClock()
	b.StopMaintenance()
	b.StopCheckpointing()
	if b.cfg.Path == "" {
		return nil
	}
	if b.lib.Poisoned() {
		// The crash that poisoned the library may have wedged the gate;
		// write the image without quiescing (the paper's shutdown-flush
		// behaviour) and let the verified-candidate fallback on reopen
		// decide whether it is usable.
		gen := b.ckptGen + 1
		if err := b.heap.WriteImage(shm.CheckpointSlot(b.cfg.Path, gen), gen); err != nil {
			return err
		}
		b.ckptGen = gen
		return nil
	}
	return b.Checkpoint()
}
