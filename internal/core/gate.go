package core

import "runtime"

// Operation gate.
//
// The paper flushes the store to its backing file only at orderly
// shutdown, and calls full crash consistency future work (§6). As a step
// in that direction this implementation supports *live checkpoints*: a
// heap-resident gate counts in-flight operations; a checkpointer raises a
// barrier bit, waits for the count to drain, snapshots the (now fully
// consistent) heap, and drops the barrier. The fast-path cost is two
// uncontended atomic adds per operation.
//
// The gate word lives in the config block: bit 63 is the barrier, the low
// bits count active operations. Entry is reentrant per context (an
// operation that internally evicts or resizes does not deadlock itself).

// Gate word layout: bit 63 is the barrier, bits 48–62 are a repair
// generation, bits 0–47 count active operations. RepairGate bumps the
// generation when it clears the count after a crash, so a decrement can
// only land on the gate incarnation it entered: a watchdog-reaped zombie
// whose deferred exitOp runs after repair must not consume a count
// entered by a new live operation (Quiesce would then observe zero with
// an op mid-flight and snapshot a torn heap). The generation wraps at
// 2^15 repairs, far past any plausible window for a zombie to straddle.
const (
	gateBarrier   = uint64(1) << 63
	gateGenShift  = 48
	gateGenMask   = uint64(0x7fff) << gateGenShift
	gateCountMask = uint64(1)<<gateGenShift - 1
)

// enterOp joins the active-operation count, waiting out any barrier, and
// records the gate generation the count was entered under. Reentrant via
// the context's depth counter.
func (c *Ctx) enterOp() {
	if c.opDepth++; c.opDepth > 1 {
		return
	}
	c.stamp, c.lent, c.nowOK = c.lent, 0, false // one stamp per admission; see Ctx.admitted
	gate := c.s.cfg + cfgGate
	for {
		g := c.s.H.AtomicLoad64(gate)
		if g&gateBarrier != 0 {
			runtime.Gosched() // a checkpoint is draining the store
			continue
		}
		if c.s.H.CAS64(gate, g, g+1) {
			c.gateGen = g & gateGenMask
			return
		}
	}
}

// exitOp leaves the active-operation count — but only on the gate
// incarnation it entered: if the generation changed (RepairGate ran
// because this thread was given up for dead) the count this context
// entered is already gone, and decrementing would eat a live operation's
// count. The zero check guards against underflow across a plain reset.
func (c *Ctx) exitOp() {
	if c.opDepth--; c.opDepth > 0 {
		return
	}
	gate := c.s.cfg + cfgGate
	for {
		g := c.s.H.AtomicLoad64(gate)
		if g&gateGenMask != c.gateGen {
			return // the gate was repaired out from under us
		}
		if g&gateCountMask == 0 {
			return // cleared by a reset; never wrap below zero
		}
		if c.s.H.CAS64(gate, g, g-1) {
			return
		}
	}
}

// Quiesce raises the barrier and waits until no operation is in flight.
// While quiesced the heap is fully consistent — no lock held, no partial
// structure — and safe to snapshot. Always pair with Unquiesce.
func (s *Store) Quiesce() {
	s.QuiesceWithAbort(nil)
}

// QuiesceWithAbort is Quiesce with an escape hatch: abort is polled while
// waiting (both for a competing barrier and for the count to drain) and a
// true return abandons the quiesce, dropping any barrier this call raised.
// A checkpointer uses it to yield to crash recovery — a count entered by a
// thread that died mid-call will never drain, so without the abort the
// checkpoint and the repair would deadlock. Returns whether the store was
// quiesced (true ⇒ the caller must Unquiesce).
func (s *Store) QuiesceWithAbort(abort func() bool) bool {
	gate := s.cfg + cfgGate
	for {
		g := s.H.AtomicLoad64(gate)
		if g&gateBarrier != 0 {
			if abort != nil && abort() {
				return false
			}
			runtime.Gosched() // another checkpointer; take turns
			continue
		}
		if s.H.CAS64(gate, g, g|gateBarrier) {
			break
		}
	}
	for s.H.AtomicLoad64(gate)&gateCountMask != 0 {
		if abort != nil && abort() {
			s.Unquiesce()
			return false
		}
		runtime.Gosched()
	}
	return true
}

// Unquiesce drops the barrier raised by Quiesce.
func (s *Store) Unquiesce() {
	gate := s.cfg + cfgGate
	for {
		g := s.H.AtomicLoad64(gate)
		if s.H.CAS64(gate, g, g&^gateBarrier) {
			return
		}
	}
}
