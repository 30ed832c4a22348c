package core

import "runtime"

// Operation gate.
//
// The paper flushes the store to its backing file only at orderly
// shutdown, and calls full crash consistency future work (§6). As a step
// in that direction this implementation supports *live checkpoints*: the
// gate counts in-flight operations; a checkpointer raises a barrier bit,
// waits for the count to drain, snapshots the (now fully consistent) heap,
// and drops the barrier. Entry is reentrant per context (an operation that
// internally evicts or resizes does not deadlock itself).
//
// The count is scattered like the statistics (§4): a context that holds
// an optimistic-reader slot counts its operation in that slot's op word,
// on a line no other thread writes, so an admission writes nothing shared.
// Entry publishes the owner token there and then checks the barrier;
// Quiesce raises the barrier and then reads every op word — Dekker order,
// both sides seq-cst, so either the entrant sees the barrier and withdraws
// or the quiescer sees the token and waits. Quiesce fences each word it
// finds drained (0 → opFence) and Unquiesce lifts the fences: an entrant
// that published after the scan passed its slot would withdraw anyway, but
// until it did, its token would count an operation that never runs in a
// quiesced store. Against a fence its publish fails instead. Exit CASes
// the word from the owner token back to zero: a zombie whose slot was
// retired, cleared by RepairGate and reclaimed by a live context leaves the
// new owner's token alone. A context with no slot (more live contexts than
// ReaderSlots) and any entry that meets a raised barrier or a fence counts
// in the store-wide word below instead.

// Gate word layout: bit 63 is the barrier, bits 48–62 are a repair
// generation, bits 0–47 count the operations of slotless entries.
// RepairGate bumps the generation when it clears the count after a crash,
// so a decrement can only land on the gate incarnation it entered: a
// watchdog-reaped zombie whose deferred exitOp runs after repair must not
// consume a count entered by a new live operation (Quiesce would then
// observe zero with an op mid-flight and snapshot a torn heap). The
// generation wraps at 2^15 repairs, far past any plausible window for a
// zombie to straddle. Slot entries need no generation: their exit is
// guarded by the owner token itself.
const (
	opFence       = uint64(1) << 63 // a drained op word while quiesced; no owner token has bit 63
	gateBarrier   = uint64(1) << 63
	gateGenShift  = 48
	gateGenMask   = uint64(0x7fff) << gateGenShift
	gateCountMask = uint64(1)<<gateGenShift - 1
)

// enterOp admits an operation, waiting out any barrier, and records where
// it was counted for exitOp. Reentrant via the context's depth counter.
func (c *Ctx) enterOp() {
	if c.opDepth++; c.opDepth > 1 {
		return
	}
	c.nowOK = false // one clock read per admission; see Ctx.now
	h := c.s.H
	gate := c.s.cfg + cfgGate
	if slot := c.rdSlot; slot != 0 && h.CAS64(slot+readerSlotOp, 0, c.owner) {
		if h.AtomicLoad64(gate)&gateBarrier == 0 {
			c.opWord = slot + readerSlotOp
			return
		}
		h.CAS64(slot+readerSlotOp, c.owner, 0) // a checkpoint is draining: withdraw
	}
	c.opWord = 0
	for {
		g := h.AtomicLoad64(gate)
		if g&gateBarrier != 0 {
			runtime.Gosched() // a checkpoint is draining the store
			continue
		}
		if h.CAS64(gate, g, g+1) {
			c.gateGen = g & gateGenMask
			return
		}
	}
}

// exitOp retires the operation where enterOp counted it. A slot entry
// clears its op word only if it still holds this context's token. A
// counted entry decrements only the gate incarnation it entered: if the
// generation changed (RepairGate ran because this thread was given up for
// dead) the count this context entered is already gone, and decrementing
// would eat a live operation's count. The zero check guards against
// underflow across a plain reset.
func (c *Ctx) exitOp() {
	if c.opDepth--; c.opDepth > 0 {
		return
	}
	if c.opWord != 0 {
		c.s.H.CAS64(c.opWord, c.owner, 0)
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

// inFlight counts the operations the gate holds: the store-wide count plus
// every reader slot whose op word holds a token.
func (s *Store) inFlight() uint64 {
	n := s.H.AtomicLoad64(s.cfg+cfgGate) & gateCountMask
	for i := uint64(0); i < s.numReaders; i++ {
		if w := s.H.AtomicLoad64(s.readerSlotOff(i) + readerSlotOp); w != 0 && w != opFence {
			n++
		}
	}
	return n
}

// drained reports whether the gate holds nothing, fencing every op word it
// finds drained so that no entrant publishes there until Unquiesce.
func (s *Store) drained() bool {
	done := s.H.AtomicLoad64(s.cfg+cfgGate)&gateCountMask == 0
	for i := uint64(0); i < s.numReaders; i++ {
		if off := s.readerSlotOff(i) + readerSlotOp; !s.H.CAS64(off, 0, opFence) && s.H.AtomicLoad64(off) != opFence {
			done = false
		}
	}
	return done
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
	for !s.drained() {
		if abort != nil && abort() {
			s.Unquiesce()
			return false
		}
		runtime.Gosched()
	}
	return true
}

// Unquiesce lifts the fences Quiesce left in the op words, then drops the
// barrier raised by Quiesce.
func (s *Store) Unquiesce() {
	for i := uint64(0); i < s.numReaders; i++ {
		s.H.CAS64(s.readerSlotOff(i)+readerSlotOp, opFence, 0)
	}
	gate := s.cfg + cfgGate
	for {
		g := s.H.AtomicLoad64(gate)
		if s.H.CAS64(gate, g, g&^gateBarrier) {
			return
		}
	}
}
