// Shared histograms are the heap-resident, position-independent form of H:
// a fixed 1136-byte layout of atomically updated uint64 words that lives in
// the Ralloc heap next to the scattered counter array. Coarser than H (4
// linear sub-buckets per power of two instead of 16) so a full per-thread,
// per-op-class matrix stays around 100 KiB, and clamped below 2^36 ns
// (~69 s) so every sample lands in a fixed bucket count regardless of
// machine. Recording is three atomic adds on thread-private slots — the
// same contention-free discipline as the scattered stats counters.
//
// The layout is offsets-only (no Go structs over heap memory) so images
// written by one process map identically in another:
//
//	off+0                        total samples
//	off+8                        sum of samples (ns)
//	off+16 + i*8                 count of bucket i, 0 <= i < SharedBuckets
package histogram

import (
	"math/bits"
	"time"

	"plibmc/internal/shm"
)

const (
	sharedSubBits    = 2 // 4 linear sub-buckets per power of two
	sharedSubBuckets = 1 << sharedSubBits
	sharedMaxExp     = 36 // samples clamped below 2^36 ns (~69 s)

	// SharedBuckets is the fixed bucket count of a shared histogram.
	SharedBuckets = (sharedMaxExp-sharedSubBits)*sharedSubBuckets + sharedSubBuckets

	// Field offsets within a shared histogram block.
	SharedOffTotal  = 0
	SharedOffSum    = 8
	SharedOffCounts = 16

	// SharedSize is the byte footprint of one shared histogram.
	SharedSize = SharedOffCounts + SharedBuckets*8
)

// SharedBucketOf maps a nanosecond sample to its bucket index.
func SharedBucketOf(v uint64) int {
	if v >= 1<<sharedMaxExp {
		v = 1<<sharedMaxExp - 1
	}
	if v < sharedSubBuckets {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(v)
	sub := (v >> (uint(exp) - sharedSubBits)) & (sharedSubBuckets - 1)
	return (exp-sharedSubBits+1)*sharedSubBuckets + int(sub)
}

// SharedBucketLow returns the smallest sample mapping to bucket i.
func SharedBucketLow(i int) uint64 {
	exp := i / sharedSubBuckets
	sub := uint64(i % sharedSubBuckets)
	if exp == 0 {
		return sub
	}
	return (sharedSubBuckets + sub) << (uint(exp) - 1)
}

// SharedRecord adds one sample to the shared histogram at off. Callers that
// need a crash point between the bucket and total updates (the fault-matrix
// site in internal/core) compose the three adds themselves using the
// exported offsets; the update order there must match this one so repair
// sees the same partial states.
func SharedRecord(h *shm.Heap, off uint64, d time.Duration) {
	v := uint64(d)
	if int64(d) < 0 {
		v = 0
	}
	h.Add64(off+SharedOffCounts+uint64(SharedBucketOf(v))*8, 1)
	h.Add64(off+SharedOffTotal, 1)
	h.Add64(off+SharedOffSum, v)
}

// SharedReset zeroes the shared histogram at off. Quiescent callers only.
func SharedReset(h *shm.Heap, off uint64) {
	h.Zero(off, SharedSize)
}

// SharedRepair re-establishes the invariant total == Σcounts after a crash
// mid-record (the bucket count lands before the total and sum). The missing
// sample's value is unknowable, so when the total is rebuilt the sum is
// reconstructed from bucket lower bounds — a documented under-estimate, the
// same trade the allocator makes when it drops a half-written block.
// Quiescent callers only (repair runs under the closed operation gate).
// Returns true if the histogram was inconsistent and has been repaired.
func SharedRepair(h *shm.Heap, off uint64) bool {
	var total, low uint64
	for i := 0; i < SharedBuckets; i++ {
		c := h.Load64(off + SharedOffCounts + uint64(i)*8)
		total += c
		low += c * SharedBucketLow(i)
	}
	if h.Load64(off+SharedOffTotal) == total {
		return false
	}
	h.Store64(off+SharedOffTotal, total)
	h.Store64(off+SharedOffSum, low)
	return true
}

// Snapshot is a point-in-time copy of one or more shared histograms,
// merged in ordinary process memory for querying.
type Snapshot struct {
	Counts [SharedBuckets]uint64
	Total  uint64
	Sum    uint64
}

// AddShared folds the shared histogram at off into the snapshot. Counts are
// read individually with atomic loads; concurrent recording can skew total
// by in-flight samples, which is fine for monitoring.
func (s *Snapshot) AddShared(h *shm.Heap, off uint64) {
	for i := 0; i < SharedBuckets; i++ {
		s.Counts[i] += h.AtomicLoad64(off + SharedOffCounts + uint64(i)*8)
	}
	s.Total += h.AtomicLoad64(off + SharedOffTotal)
	s.Sum += h.AtomicLoad64(off + SharedOffSum)
}

// Merge folds other into s.
func (s *Snapshot) Merge(other *Snapshot) {
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Total += other.Total
	s.Sum += other.Sum
}

// Count returns the number of samples.
func (s *Snapshot) Count() uint64 { return s.Total }

// Mean returns the mean sample.
func (s *Snapshot) Mean() time.Duration {
	if s.Total == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Total)
}

// Percentile returns the p'th percentile (0 < p <= 100), quantized to the
// lower edge of its bucket, using the same ceiling rank as H.Percentile.
func (s *Snapshot) Percentile(p float64) time.Duration {
	// Σcounts, not Total: a snapshot read concurrently with recording can
	// have the two disagree by in-flight samples, and the rank walk below
	// must terminate inside the counts.
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	want := percentileRank(p, n)
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= want {
			return time.Duration(SharedBucketLow(i))
		}
	}
	return time.Duration(SharedBucketLow(SharedBuckets - 1))
}

// Max returns the lower edge of the highest occupied bucket.
func (s *Snapshot) Max() time.Duration {
	for i := SharedBuckets - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			return time.Duration(SharedBucketLow(i))
		}
	}
	return 0
}
