package histogram

import (
	"testing"
	"time"

	"plibmc/internal/shm"
)

func TestSharedLayout(t *testing.T) {
	if SharedBuckets != 140 {
		t.Fatalf("SharedBuckets = %d", SharedBuckets)
	}
	if SharedSize != 16+140*8 {
		t.Fatalf("SharedSize = %d", SharedSize)
	}
}

func TestSharedBucketBoundaries(t *testing.T) {
	vals := []uint64{0, 1, 3, 4, 5, 100, 1000, 1 << 20, 1 << 35, 1<<36 - 1}
	for _, v := range vals {
		b := SharedBucketOf(v)
		if b < 0 || b >= SharedBuckets {
			t.Fatalf("bucket of %d = %d out of range", v, b)
		}
		if SharedBucketLow(b) > v {
			t.Fatalf("SharedBucketLow(%d)=%d > %d", b, SharedBucketLow(b), v)
		}
		if b+1 < SharedBuckets && SharedBucketLow(b+1) <= v {
			t.Fatalf("value %d should be below next bucket edge %d", v, SharedBucketLow(b+1))
		}
	}
	// Samples past the clamp all land in the top bucket.
	if SharedBucketOf(1<<36) != SharedBuckets-1 || SharedBucketOf(^uint64(0)) != SharedBuckets-1 {
		t.Fatal("overflow samples should clamp to the top bucket")
	}
}

func TestSharedRecordSnapshot(t *testing.T) {
	h := shm.New(4096)
	off := uint64(128)
	SharedReset(h, off)
	for i := 1; i <= 100; i++ {
		SharedRecord(h, off, time.Duration(i)*time.Microsecond)
	}
	var s Snapshot
	s.AddShared(h, off)
	if s.Count() != 100 {
		t.Fatalf("count = %d", s.Count())
	}
	if m := s.Mean(); m < 40*time.Microsecond || m > 51*time.Microsecond {
		t.Fatalf("mean = %v", m)
	}
	p99 := s.Percentile(99)
	if p99 < 90*time.Microsecond || p99 > 99*time.Microsecond {
		t.Fatalf("p99 = %v", p99)
	}
	if s.Max() < 64*time.Microsecond {
		t.Fatalf("max = %v", s.Max())
	}

	// Merging two snapshots of the same data doubles counts.
	var s2 Snapshot
	s2.AddShared(h, off)
	s2.Merge(&s)
	if s2.Count() != 200 {
		t.Fatalf("merged count = %d", s2.Count())
	}

	SharedReset(h, off)
	var s3 Snapshot
	s3.AddShared(h, off)
	if s3.Count() != 0 || s3.Percentile(50) != 0 || s3.Max() != 0 {
		t.Fatal("reset histogram should be empty")
	}
}

func TestSharedRepair(t *testing.T) {
	h := shm.New(4096)
	off := uint64(0)
	SharedReset(h, off)
	for i := 0; i < 10; i++ {
		SharedRecord(h, off, 5*time.Microsecond)
	}
	if SharedRepair(h, off) {
		t.Fatal("consistent histogram should not need repair")
	}
	// Simulate a crash between the bucket add and the total add: one extra
	// bucket count with no matching total/sum update.
	h.Add64(off+SharedOffCounts+uint64(SharedBucketOf(uint64(5*time.Microsecond)))*8, 1)
	if !SharedRepair(h, off) {
		t.Fatal("torn histogram should report repair")
	}
	var s Snapshot
	s.AddShared(h, off)
	if s.Count() != 11 {
		t.Fatalf("repaired count = %d", s.Count())
	}
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	if n != s.Total {
		t.Fatalf("invariant broken after repair: Σcounts=%d total=%d", n, s.Total)
	}
	if SharedRepair(h, off) {
		t.Fatal("second repair should be a no-op")
	}
}

// Percentile boundary semantics, shared with H via percentileRank: the p'th
// percentile of n samples is the ceil(p/100*n)'th smallest, so the median of
// an odd count is the middle sample, not the one below it.
func TestPercentileBoundaries(t *testing.T) {
	// Odd count: median of {1,2,3} is 2. A truncating rank returns 1.
	h := New()
	for i := 1; i <= 3; i++ {
		h.Record(time.Duration(i))
	}
	if got := h.Percentile(50); got != 2 {
		t.Fatalf("p50 of {1,2,3} = %v, want 2", got)
	}
	if got := h.Percentile(100); got != 3 {
		t.Fatalf("p100 of {1,2,3} = %v, want 3", got)
	}

	// 101 distinct sub-bucket-exact samples: median is sample 51.
	h2 := New()
	for i := 0; i <= 100; i++ {
		h2.Record(time.Duration(i) * 16) // 16ns apart; distinct low buckets
	}
	// Rank ceil(50.5)=51 is the sample 50*16=800, which is exactly a bucket
	// edge; a truncating rank lands on 784 and reports its bucket edge 768.
	if got := h2.Percentile(50); got != 50*16 {
		t.Fatalf("p50 of 101 samples = %v, want %v", got, time.Duration(50*16))
	}

	// Single sample: every percentile is that sample's bucket.
	h3 := New()
	h3.Record(7)
	for _, p := range []float64{0.1, 50, 99.9, 100} {
		if got := h3.Percentile(p); got != 7 {
			t.Fatalf("p%v of single sample = %v, want 7", p, got)
		}
	}

	// Same semantics on the shared form.
	heap := shm.New(4096)
	SharedReset(heap, 0)
	for i := 1; i <= 3; i++ {
		SharedRecord(heap, 0, time.Duration(i))
	}
	var s Snapshot
	s.AddShared(heap, 0)
	if got := s.Percentile(50); got != 2 {
		t.Fatalf("shared p50 of {1,2,3} = %v, want 2", got)
	}
	if got := s.Percentile(100); got != 3 {
		t.Fatalf("shared p100 of {1,2,3} = %v, want 3", got)
	}
}

func BenchmarkSharedRecord(b *testing.B) {
	h := shm.New(4096)
	SharedReset(h, 0)
	for i := 0; i < b.N; i++ {
		SharedRecord(h, 0, time.Duration(i%100000))
	}
}
