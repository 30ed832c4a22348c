package pku

import (
	"testing"
	"unsafe"
)

// TestHotWordsOwnTheirLines pins vkeyState's padding: the pin word every
// binding call CASes sits at least a cache line from both ends of the
// struct, so the records of other keys — and the states map beside them —
// never share its line.
func TestHotWordsOwnTheirLines(t *testing.T) {
	var st vkeyState
	size := unsafe.Sizeof(st)
	for name, f := range map[string][2]uintptr{
		"word": {unsafe.Offsetof(st.word), unsafe.Sizeof(st.word)},
	} {
		if off, n := f[0], f[1]; off < 64 || size-off-n < 64 {
			t.Errorf("vkeyState.%s at bytes %d..%d of %d: less than a cache line from an end", name, off, off+n, size)
		}
	}
}
