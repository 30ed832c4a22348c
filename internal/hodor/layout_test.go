package hodor

import (
	"testing"
	"unsafe"
)

// TestHotWordsOwnTheirLines pins Session's padding: every word a call
// writes sits at least a cache line from both ends of the struct, so no
// object the allocator places beside a session — another thread's session,
// most often — shares a line with it.
func TestHotWordsOwnTheirLines(t *testing.T) {
	var s Session
	size := unsafe.Sizeof(s)
	for name, f := range map[string][2]uintptr{
		"callStart":  {unsafe.Offsetof(s.callStart), unsafe.Sizeof(s.callStart)},
		"stackDepth": {unsafe.Offsetof(s.stackDepth), unsafe.Sizeof(s.stackDepth)},
		"savedPKRU":  {unsafe.Offsetof(s.savedPKRU), unsafe.Sizeof(s.savedPKRU)},
		"calls":      {unsafe.Offsetof(s.calls), unsafe.Sizeof(s.calls)},
		"crossings":  {unsafe.Offsetof(s.crossings), unsafe.Sizeof(s.crossings)},
	} {
		if off, n := f[0], f[1]; off < 64 || size-off-n < 64 {
			t.Errorf("Session.%s at bytes %d..%d of %d: less than a cache line from an end", name, off, off+n, size)
		}
	}
}
