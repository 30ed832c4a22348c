package core

import (
	"testing"
	"unsafe"
)

// TestHotWordsOwnTheirLines pins Ctx's padding: every word an operation
// writes sits at least a cache line from both ends of the struct, so no
// object the allocator places beside a context — another thread's context,
// most often — shares a line with it.
func TestHotWordsOwnTheirLines(t *testing.T) {
	var c Ctx
	size := unsafe.Sizeof(c)
	for name, f := range map[string][2]uintptr{
		"opDepth":  {unsafe.Offsetof(c.opDepth), unsafe.Sizeof(c.opDepth)},
		"nowCache": {unsafe.Offsetof(c.nowCache), unsafe.Sizeof(c.nowCache)},
		"latN":     {unsafe.Offsetof(c.latN), unsafe.Sizeof(c.latN)},
	} {
		if off, n := f[0], f[1]; off < 64 || size-off-n < 64 {
			t.Errorf("Ctx.%s at bytes %d..%d of %d: less than a cache line from an end", name, off, off+n, size)
		}
	}
}
