package memcached

import (
	"fmt"
	"time"

	"plibmc/internal/shm"
)

// Live checkpoints.
//
// The paper persists the store only at orderly shutdown and leaves crash
// resilience as future work (§6). This implementation goes two steps
// further. Checkpoint quiesces the store through the operation gate (all
// in-flight calls drain; none holds a lock or a half-built structure) and
// writes a generation-stamped, checksummed heap image crash-atomically
// (temp file + rename). Successive checkpoints alternate between two slots
// (<path>.a / <path>.b), so the previous image survives a crash at any
// instant of the current write — OpenStore falls back to the newest image
// that verifies. A process that dies mid-checkpoint therefore loses only
// the writes since the previous checkpoint, never the store's integrity.

// ErrRecovering is returned by Checkpoint when the store is being
// structurally repaired: a heap image taken mid-repair would persist
// half-rebuilt chains, so the checkpoint refuses rather than waits out an
// unbounded repair.
var ErrRecovering = fmt.Errorf("memcached: store is being repaired; retry after recovery")

// Checkpoint writes a consistent heap image next to the configured backing
// file while the store stays online. The store is paused only for the
// duration of the file write.
func (b *Bookkeeper) Checkpoint() error {
	if b.cfg.Path == "" {
		return fmt.Errorf("memcached: checkpoint requires a backing file path")
	}
	// Cheap early refusal before touching repairMu: if a repair is already
	// running, the mutex is held (or about to be contended) by the repair
	// coordinator and there is nothing useful to wait for.
	if b.lib.Recovering() {
		return ErrRecovering
	}
	// Checkpointing and structural repair are mutually exclusive: a heap
	// image taken mid-repair would persist half-rebuilt chains.
	b.repairMu.Lock()
	defer b.repairMu.Unlock()
	// Re-check after acquiring: a crash may have flipped the library into
	// recovery while we waited for a maintenance pass to finish. The repair
	// coordinator spins on TryLock, so returning promptly here is what lets
	// it in.
	if b.lib.Recovering() {
		return ErrRecovering
	}
	// Quiesce, but abandon the attempt the moment a crash starts a repair:
	// the gate may never drain under a dead call, and the repair pass both
	// needs repairMu and resets the gate itself.
	if !b.store.QuiesceWithAbort(b.lib.Recovering) {
		return ErrRecovering
	}
	defer b.store.Unquiesce()

	gen := b.ckptGen + 1
	start := time.Now()
	err := b.heap.WriteImage(shm.CheckpointSlot(b.cfg.Path, gen), gen)
	b.repairReportMu.Lock()
	if err != nil {
		b.ckptFailures++
		b.ckptLastErr = err.Error()
		b.ckptLastErrAt = time.Now()
	} else {
		b.ckpts++
		b.ckptLastGen = gen
		b.ckptLastTime = time.Since(start)
		b.ckptLastAt = time.Now()
	}
	b.repairReportMu.Unlock()
	if err != nil {
		return err
	}
	b.ckptGen = gen
	return nil
}

// CheckpointGeneration returns the generation of the most recent durable
// image (written by this Bookkeeper or inherited from the image OpenStore
// loaded). Zero means no image exists yet.
func (b *Bookkeeper) CheckpointGeneration() uint64 {
	b.repairMu.Lock()
	defer b.repairMu.Unlock()
	return b.ckptGen
}

// StartCheckpointing writes a checkpoint every interval until
// StopCheckpointing. Errors are reported through the returned channel
// (buffered; unread errors are dropped). ErrRecovering is expected when a
// tick lands during a repair and is not reported. Idempotent while
// running: a second call's channel receives nothing.
func (b *Bookkeeper) StartCheckpointing(interval time.Duration) <-chan error {
	errs := make(chan error, 4)
	b.ckptLoop.start(interval, func() {
		if err := b.Checkpoint(); err != nil && err != ErrRecovering {
			select {
			case errs <- err:
			default:
			}
		}
	})
	return errs
}

// StopCheckpointing stops the periodic checkpointer.
func (b *Bookkeeper) StopCheckpointing() { b.ckptLoop.stop() }
