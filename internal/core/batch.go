package core

// Batched dispatch (ISSUE 6 tentpole). A batch carries up to a pipeline's
// worth of heterogeneous operations across the gate in one admission: the
// trampoline amplifies rights once, the dispatcher below runs every
// operation at gate depth 2 (enterOp/exitOp are reentrant), and the gate
// count returns to zero only when the whole batch retires. Crossings-per-op
// falls as 1/k with batch size k, the figure of merit the paper's "calls
// are cheap enough to replace IPC" premise rests on.
//
// Error isolation is per operation: a miss, a CAS conflict, or a malformed
// op lands in its own BatchResult.Err and the dispatcher moves on — one
// failed operation never poisons its siblings. A *crash* mid-batch (the
// ops.batch.mid_dispatch fault point) is different: it unwinds through the
// trampoline like any in-library fault, leaves the gate count held, and is
// repaired by the normal quarantine→repair→resume cycle; operations already
// executed are durable, the rest never ran.

import (
	"fmt"

	"plibmc/internal/faultpoint"
)

// BatchCode selects the operation one BatchOp performs.
type BatchCode uint8

const (
	BatchGet BatchCode = iota
	BatchGAT           // get-and-touch: Get + expiry update (Exptime)
	BatchSet
	BatchAdd
	BatchReplace
	BatchCAS
	BatchAppend
	BatchPrepend
	BatchDelete
	BatchIncr
	BatchDecr
	BatchTouch
	// Migration ops (live resharding). BatchExport is a read that does not
	// bump the LRU and additionally returns the entry's absolute expiry;
	// BatchInstall is an unconditional store that preserves an existing
	// CAS generation and takes Exptime as already-absolute. Neither is
	// reachable from the wire protocol — only the in-process migrator
	// issues them.
	BatchExport
	BatchInstall
)

// BatchOp is one operation in a batch. Which fields matter depends on Code:
// every op uses Key; stores use Value/Flags/Exptime (CAS additionally for
// BatchCAS); Append/Prepend use Value; Incr/Decr use Delta; Touch and GAT
// use Exptime.
type BatchOp struct {
	Code    BatchCode
	Key     []byte
	Value   []byte
	Flags   uint32
	Exptime int64
	Delta   uint64
	CAS     uint64
}

// BatchResult is one operation's outcome, index-aligned with the ops slice.
// Err carries the operation's own failure (ErrNotFound, ErrCASMismatch, …)
// without affecting its siblings.
type BatchResult struct {
	Value   []byte // retrieved value (Get/GAT hits)
	Flags   uint32
	CAS     uint64
	Num     uint64 // new counter value (Incr/Decr)
	Exptime int64  // absolute expiry (Export hits; 0 = never)
	Err     error
}

// fpBatchMidDispatch crashes between two operations of a batch: the prefix
// has committed, the suffix never runs, and the gate count is held — the
// state online recovery must repair while sibling clients keep serving.
var fpBatchMidDispatch = faultpoint.New("ops.batch.mid_dispatch")

// ExecBatch, the one batch loop, executes ops in order under a single gate
// admission — nested operations run at gate depth 2, so the whole batch
// costs one admission and (through the session layer) one trampoline
// crossing; one latency sample of class LatBatch covers the batch. It
// works in what whoever entered the API lends it (DESIGN.md §12 "Who owns
// the bytes"): res, one slot per op, is overwritten, and every value
// retrieved is appended to vbuf, returned as grown — one buffer, not 64.
//
// The batch makes two passes. The key pass (keypass.go) captures and hashes
// every key once and touches each key's bucket and chain head, so the
// batch's cache misses overlap; the dispatch loop then runs each op on its
// captured key and hash.
func (c *Ctx) ExecBatch(ops []BatchOp, res []BatchResult, vbuf []byte) []byte {
	if len(ops) == 0 {
		return vbuf
	}
	defer c.opEnd(LatBatch, c.opBegin())
	// Defer stat publication for the whole batch: counters accumulate in the
	// context and land in the shared slots as one add per touched counter
	// when the batch retires, instead of ~3 atomic adds per operation.
	c.statDefer = true
	defer c.statFlushDeferred()
	c.stat(statBatches, 1)
	c.stat(statBatchedOps, int64(len(ops)))
	slots := c.keySlots(len(ops))
	for i := range ops {
		c.takeKey(&slots[i], ops[i].Key)
	}
	c.touchChains(slots)
	// Starts are recorded during dispatch and sliced out afterwards — an
	// append may relocate the buffer, so sub-slices can only be taken once
	// the batch is done growing it. They are the library's own (§3.4): res
	// is client memory, and no slot already written is read back to decide
	// which get a value.
	clear(res)
	for i := range ops {
		sl := &slots[i]
		if i > 0 {
			fpBatchMidDispatch.Maybe()
			// Cooperative abort (gate hardening): between operations the
			// dispatcher is at a clean point — no locks held, the prefix
			// durable — so an over-budget batch can stop here instead of
			// escalating to a reap-and-repair cycle.
			if c.AbortCheck != nil && c.AbortCheck() {
				for j := i; j < len(ops); j++ {
					res[j].Err, slots[j].start = ErrCallAborted, -1
				}
				break
			}
		}
		if sl.klen < 0 {
			res[i].Err = ErrKeyTooLong
			continue
		}
		vbuf = c.execBatchOne(&ops[i], &res[i], vbuf, &sl.start, c.slotKey(sl), sl.hash)
	}
	end := len(vbuf)
	for i := len(ops) - 1; i >= 0; i-- {
		if st := slots[i].start; st >= 0 {
			if end > st {
				res[i].Value = vbuf[st:end:end]
			}
			end = st
		}
	}
	return vbuf
}

// Do executes one operation outside any batch, overwriting *r: unlike a
// one-op ExecBatch it keeps its own latency class and gate admission, and
// a retrieval hit gets a value allocation of its own.
func (c *Ctx) Do(op *BatchOp, r *BatchResult) {
	*r = BatchResult{}
	k, hash, err := c.takeOne(op.Key)
	if err != nil {
		r.Err = err
		return
	}
	var start int
	r.Value = c.execBatchOne(op, r, nil, &start, k, hash)
}

// execBatchOne dispatches one operation, its key k already captured and
// hashed, into the inner forms of the op implementations; their own
// enterOp calls nest inside the batch's. Retrieval ops append their value
// to vbuf and record the start offset in *start; every other op leaves
// *start alone. Returns the grown buffer.
func (c *Ctx) execBatchOne(op *BatchOp, r *BatchResult, vbuf []byte, start *int, k []byte, hash uint64) []byte {
	switch op.Code {
	case BatchGet:
		*start = len(vbuf)
		vbuf, r.Flags, r.CAS, r.Err = c.getAppend(vbuf, k, hash)
	case BatchGAT:
		*start = len(vbuf)
		vbuf, r.Flags, r.CAS, r.Err = c.getAndTouchAppend(vbuf, k, hash, op.Exptime)
	case BatchSet:
		r.Err = c.storeKey(modeSet, k, hash, op.Value, op.Flags, op.Exptime, 0)
	case BatchAdd:
		r.Err = c.storeKey(modeAdd, k, hash, op.Value, op.Flags, op.Exptime, 0)
	case BatchReplace:
		r.Err = c.storeKey(modeReplace, k, hash, op.Value, op.Flags, op.Exptime, 0)
	case BatchCAS:
		r.Err = c.storeKey(modeCAS, k, hash, op.Value, op.Flags, op.Exptime, op.CAS)
	case BatchAppend:
		r.Err = c.pendKey(k, hash, op.Value, false)
	case BatchPrepend:
		r.Err = c.pendKey(k, hash, op.Value, true)
	case BatchDelete:
		r.Err = c.deleteKey(k, hash)
	case BatchIncr:
		r.Num, r.Err = c.incrDecrKey(k, hash, op.Delta, false)
	case BatchDecr:
		r.Num, r.Err = c.incrDecrKey(k, hash, op.Delta, true)
	case BatchTouch:
		r.Err = c.touchKey(k, hash, op.Exptime)
	case BatchExport:
		*start = len(vbuf)
		vbuf, r.Flags, r.CAS, r.Exptime, r.Err = c.exportAppend(vbuf, k, hash)
	case BatchInstall:
		r.Err = c.installKey(k, hash, op.Value, op.Flags, op.Exptime, op.CAS)
	default:
		r.Err = fmt.Errorf("core: unknown batch op code %d", op.Code)
	}
	return vbuf
}
