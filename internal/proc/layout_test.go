package proc

import (
	"testing"
	"unsafe"
)

// TestHotWordsOwnTheirLines pins Thread's padding: every word a gate
// crossing writes sits at least a cache line from both ends of the struct,
// so no object the allocator places beside a thread — another thread, most
// often — shares a line with it.
func TestHotWordsOwnTheirLines(t *testing.T) {
	var th Thread
	size := unsafe.Sizeof(th)
	for name, f := range map[string][2]uintptr{
		"pkru":      {unsafe.Offsetof(th.pkru), unsafe.Sizeof(th.pkru)},
		"inLibrary": {unsafe.Offsetof(th.inLibrary), unsafe.Sizeof(th.inLibrary)},
	} {
		if off, n := f[0], f[1]; off < 64 || size-off-n < 64 {
			t.Errorf("Thread.%s at bytes %d..%d of %d: less than a cache line from an end", name, off, off+n, size)
		}
	}
}
