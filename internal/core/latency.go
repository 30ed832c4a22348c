package core

// Scattered latency histograms.
//
// The paper scattered the request *counters* across the slots of a shared
// array because the single stats lock serialized the data plane (§4,
// Fig. 3); this file extends the same discipline to latency. A matrix of
// fixed-layout shared histograms (histogram.SharedSize bytes each, padded
// to cache lines) lives in the Ralloc heap, reachable from RootLatency:
// one row per slot, one column per operation class. A context records into
// the slot its reader slot picks (Ctx.scatter) with three atomic adds, so recording
// never contends across threads, and because the matrix is heap-resident
// the histograms survive into crash images for post-mortem forensics
// (plibdump -metrics) and are re-validated by Repair like any other shared
// structure.
//
// Recording is sampled: one in every LatencySampleEvery operations per
// context pays for two precise clock reads, at its start and its end; the
// rest pay one branch and one increment. Percentiles are unbiased under
// uniform sampling; totals count sampled operations, not all operations
// (the scattered counters already count every operation exactly).

import (
	"fmt"

	"plibmc/internal/faultpoint"
	"plibmc/internal/histogram"
	"plibmc/internal/mono"
)

// Operation classes, one histogram column each.
const (
	LatGet = iota
	LatSet
	LatDelete
	LatTouch
	LatMaint
	LatBatch
	NumLatClasses
)

// LatClassNames names each class for exporters, index-aligned with the
// constants above.
var LatClassNames = [NumLatClasses]string{"get", "set", "delete", "touch", "maint", "batch"}

// Matrix geometry: each histogram padded to whole cache lines so two
// classes of one slot never false-share, and slots are line-aligned runs.
// Like the statistics slots, contexts spread over the latencySlots slots
// by reader slot, so recording stays contention free at sane thread
// counts. A store created with another count (the image's config block
// records it) still attaches.
const (
	latHistStride = (histogram.SharedSize + 63) &^ 63
	latSlotStride = NumLatClasses * latHistStride
	latencySlots  = 16
)

// fpLatRecord crashes between the bucket-count add and the total add,
// leaving the histogram's total != Σcounts invariant torn — the state
// Repair's histogram pass (and histogram.SharedRepair) must mend.
var fpLatRecord = faultpoint.New("lat.record")

// latOff returns the heap offset of one slot's histogram for class.
func (s *Store) latOff(slot uint64, class int) uint64 {
	return s.latency + slot*latSlotStride + uint64(class)*latHistStride
}

// opBegin is enterOp plus sampled latency capture: it returns a precise
// start (mono.Now) if this operation was chosen for recording, else 0.
// Only outermost operations sample (a nested Get inside a batch, or an
// eviction inside a Set, is part of its parent's latency).
func (c *Ctx) opBegin() int64 {
	c.enterOp()
	if c.opDepth != 1 || !c.s.latEnabled {
		return 0
	}
	if c.latN++; c.latN&c.s.latMask != 0 {
		return 0
	}
	return mono.Now()
}

// opEnd records the sampled latency (before exitOp, so a crash inside
// recording presents as a crash mid-operation: gate count held, repair
// required) and leaves the operation gate.
func (c *Ctx) opEnd(class int, t0 int64) {
	if t0 != 0 {
		c.latRecord(class, mono.Now()-t0)
	}
	c.exitOp()
}

// latRecord adds one sample to this context's slot. The three adds follow
// histogram.SharedRecord's order — bucket, then total, then sum — with the
// fault-matrix crash point between the first two.
func (c *Ctx) latRecord(class int, ns int64) {
	v := uint64(max(ns, 0))
	off := c.s.latOff(c.latSlot, class)
	h := c.s.H
	h.Add64(off+histogram.SharedOffCounts+uint64(histogram.SharedBucketOf(v))*8, 1)
	fpLatRecord.Maybe()
	h.Add64(off+histogram.SharedOffTotal, 1)
	h.Add64(off+histogram.SharedOffSum, v)
}

// LatencySnapshot is a merged view of the histogram matrix: every slot
// summed, one histogram per operation class.
type LatencySnapshot struct {
	Classes [NumLatClasses]histogram.Snapshot
}

// Latency scans the whole matrix (the statistics-retrieving scan of the
// scattered-stats discipline) and returns per-class merged histograms.
func (s *Store) Latency() LatencySnapshot {
	var ls LatencySnapshot
	if s.latency == 0 {
		return ls
	}
	for slot := uint64(0); slot < s.latSlots; slot++ {
		for class := 0; class < NumLatClasses; class++ {
			ls.Classes[class].AddShared(s.H, s.latOff(slot, class))
		}
	}
	return ls
}

// LatencyEnabled reports whether operations record latency samples.
func (s *Store) LatencyEnabled() bool { return s.latEnabled }

// LatencySampleEvery returns the per-context sampling period (1 = every
// operation), for exporters that want to report the sampling rate.
func (s *Store) LatencySampleEvery() uint64 { return s.latMask + 1 }

// repairLatency is Repair's histogram pass: verify the matrix still sits
// on a live allocator block of the right size, then re-establish each
// histogram's total == Σcounts invariant (a thread that died inside
// latRecord leaves exactly that torn). Returns how many histograms needed
// mending.
func (s *Store) repairLatency() (int, error) {
	if s.latency == 0 {
		return 0, nil
	}
	if blk := s.A.BlockAt(s.latency); blk < s.latSlots*latSlotStride {
		return 0, fmt.Errorf("core: repair: latency matrix %#x is not a live %d-byte block (got %d)",
			s.latency, s.latSlots*latSlotStride, blk)
	}
	n := 0
	for slot := uint64(0); slot < s.latSlots; slot++ {
		for class := 0; class < NumLatClasses; class++ {
			if histogram.SharedRepair(s.H, s.latOff(slot, class)) {
				n++
			}
		}
	}
	return n, nil
}
