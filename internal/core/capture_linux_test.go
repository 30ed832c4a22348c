package core

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"testing"
)

// A client thread that rewrites a batch's keys while the batch runs must
// not make the library store an item whose hash disagrees with its key:
// the key pass hashes its own copy, and the op stores that same copy. The
// keys live in an anonymous mapping, outside the Go heap, as a client's
// memory would: the rewrites race the library's reads by design, and the
// race detector does not watch that memory.
func TestExecBatchCaptureOutlivesScribbledKeys(t *testing.T) {
	const n, keyLen = 16, 32
	mem, err := syscall.Mmap(-1, 0, n*keyLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("no anonymous mapping: %v", err)
	}
	defer syscall.Munmap(mem)
	ops := make([]BatchOp, n)
	for i := range ops {
		key := mem[i*keyLen : (i+1)*keyLen]
		copy(key, fmt.Sprintf("scribbled-key-%017d", i))
		ops[i] = BatchOp{Code: BatchSet, Key: key, Value: []byte("v")}
	}
	s, c := newStore(t, 1<<24, Options{HashPower: 10, NumItemLocks: 16})
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := byte(0); !stop.Load(); b++ {
			for i := 0; i < n; i++ {
				mem[i*keyLen+keyLen-1-int(b%8)] = '0' + b%10
			}
		}
	}()
	res := make([]BatchResult, n)
	for round := 0; round < 2000; round++ {
		c.ExecBatch(ops, res, nil)
		for i := range res {
			if res[i].Err != nil {
				stop.Store(true)
				t.Fatalf("round %d op %d: %v", round, i, res[i].Err)
			}
		}
	}
	stop.Store(true)
	<-done
	var cursor uint64
	scanned, corrupt := c.ScrubChains(&cursor, int(s.numItemLocks))
	if scanned == 0 || corrupt != 0 {
		t.Fatalf("scrubber scanned %d items, found %d whose stored hash or sums disagree", scanned, corrupt)
	}
}
