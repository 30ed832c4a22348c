package hodor

import (
	"bytes"
	"fmt"

	"plibmc/internal/proc"
)

// The wrpkru instruction encoding on x86-64.
var wrpkruOpcode = []byte{0x0F, 0x01, 0xEF}

// NumBreakpointRegs is the number of hardware debug-address registers
// (DR0–DR3) available for trapping stray wrpkru instances.
const NumBreakpointRegs = 4

// ScanWRPKRU returns the offsets of every wrpkru opcode in text, the scan
// Hodor's modified loader performs over an about-to-be-executed binary.
func ScanWRPKRU(text []byte) []int {
	var offs []int
	for i := 0; ; {
		j := bytes.Index(text[i:], wrpkruOpcode)
		if j < 0 {
			return offs
		}
		offs = append(offs, i+j)
		i += j + 1 // overlapping occurrences are still distinct addresses
	}
}

// Binary is a program image about to be executed: its text section and the
// offsets of the wrpkru instances that belong to legitimate trampolines
// (installed by the loader itself, and therefore trusted).
type Binary struct {
	Name        string
	Text        []byte
	Trampolines []int // offsets of sanctioned wrpkru instances
}

// LoadResult records what the loader did for one process: which stray
// wrpkru addresses were covered by hardware breakpoints, and whether the
// binary had so many strays that the loader fell back to flipping page
// permissions around them (the paper's "at some cost" path).
type LoadResult struct {
	Process      *proc.Process
	Breakpoints  []int
	PageFallback bool
}

// TryExecute simulates the processor reaching the instruction at off. If a
// hardware breakpoint is armed there (or the page-permission fallback is
// active and off holds a stray wrpkru), execution traps and an error is
// returned; the kernel would deliver SIGTRAP/SIGSEGV and the attempt to
// forge protection rights fails.
func (r *LoadResult) TryExecute(off int) error {
	for _, bp := range r.Breakpoints {
		if bp == off {
			return fmt.Errorf("hodor: hardware breakpoint trap at %#x (stray wrpkru)", off)
		}
	}
	if r.PageFallback {
		return fmt.Errorf("hodor: page-permission trap at %#x (stray wrpkru, fallback mode)", off)
	}
	return nil
}

// Loader is the modified, trusted system loader.
type Loader struct{}

// Load prepares a process to use the given protected libraries:
//
//   - scans the binary for wrpkru instances outside sanctioned trampolines
//     and arms hardware breakpoints over them (≤4), falling back to page
//     permissions beyond that;
//   - for each library, runs its initialization routine with the effective
//     UID of the library owner — so the library can open its backing file —
//     and then reverts the EUID (paper §3.3);
//   - links the library's trampolines into the process and registers it
//     with the library, after which threads of the process may Attach.
//
// Threads of the process start with all non-default keys restricted, the
// state the injected pre-main initialization routine establishes.
func (Loader) Load(p *proc.Process, bin Binary, libs ...*Library) (*LoadResult, error) {
	res := &LoadResult{Process: p}

	sanctioned := make(map[int]bool, len(bin.Trampolines))
	for _, off := range bin.Trampolines {
		sanctioned[off] = true
	}
	var strays []int
	for _, off := range ScanWRPKRU(bin.Text) {
		if !sanctioned[off] {
			strays = append(strays, off)
		}
	}
	if len(strays) <= NumBreakpointRegs {
		res.Breakpoints = strays
	} else {
		// More strays than debug registers: cover what we can and flip
		// page permissions for the rest.
		res.Breakpoints = strays[:NumBreakpointRegs]
		res.PageFallback = true
	}

	for _, l := range libs {
		savedEUID := p.EUID()
		p.SetEUID(l.OwnerUID)
		var initErr error
		if l.initFn != nil {
			initErr = l.initFn(p)
		}
		p.SetEUID(savedEUID)
		if initErr != nil {
			return nil, fmt.Errorf("hodor: init of library %q in process %d: %w", l.Name, p.ID, initErr)
		}
	}
	for _, l := range libs {
		l.Register(p)
	}
	return res, nil
}

// Attach binds a thread of the loaded process to a library, returning the
// session through which trampolined calls are made. It fails with
// ErrNotLinked unless the library has the process registered (Load linked
// it, and it was not forgotten since), or if the thread already has a
// session on it.
func (r *LoadResult) Attach(t *proc.Thread, l *Library) (*Session, error) {
	if t.Proc != r.Process {
		return nil, fmt.Errorf("hodor: thread belongs to process %d, not %d", t.Proc.ID, r.Process.ID)
	}
	return l.attach(t)
}
