package memcached

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/hodor"
	"plibmc/internal/proc"
	"plibmc/internal/protocol"
	"plibmc/internal/shm"
)

// Errors re-exported from the data plane (the memcached_return_t values).
var (
	ErrNotFound    = core.ErrNotFound
	ErrExists      = core.ErrExists
	ErrCASMismatch = core.ErrCASMismatch
	ErrNotNumeric  = core.ErrNotNumeric
	ErrKeyTooLong  = core.ErrKeyTooLong
	ErrValueTooBig = core.ErrValueTooBig
	ErrNoSpace     = core.ErrNoSpace
	ErrBadKey      = protocol.ErrBadKey // an ASCII SocketSession's refusal; the rest take any key
)

// BatchOp and BatchResult are the batched-call ABI, re-exported from the
// data plane: one ExecBatch carries many of them across the gate in a
// single trampoline crossing.
type (
	BatchOp     = core.BatchOp
	BatchResult = core.BatchResult
)

// Batch op codes, re-exported for clients of the public API.
const (
	BatchGet     = core.BatchGet
	BatchGAT     = core.BatchGAT
	BatchSet     = core.BatchSet
	BatchAdd     = core.BatchAdd
	BatchReplace = core.BatchReplace
	BatchCAS     = core.BatchCAS
	BatchAppend  = core.BatchAppend
	BatchPrepend = core.BatchPrepend
	BatchDelete  = core.BatchDelete
	BatchIncr    = core.BatchIncr
	BatchDecr    = core.BatchDecr
	BatchTouch   = core.BatchTouch
	BatchExport  = core.BatchExport  // migration read: no LRU bump, carries expiry
	BatchInstall = core.BatchInstall // migration store: preserves CAS, absolute expiry
)

// KV is the key-value API of one client thread's handle on the store: the
// paper's memcached_* entry points as methods. *Session (one store) and
// *ClusterSession (sharded) implement it, so code that does not care about
// topology — compat.St, the model checkers, the conformance table — takes
// a KV. A single op's value is the caller's; what MGet and ExecBatch
// return is lent until the handle's next MGet or ExecBatch, which may
// reuse it while it runs: a caller that keeps it, or passes it to that
// batch, copies it.
type KV interface {
	Get(key []byte) ([]byte, uint32, error)
	Gets(key []byte) ([]byte, uint32, uint64, error)
	Set(key, value []byte, flags uint32, exptime int64) error
	Add(key, value []byte, flags uint32, exptime int64) error
	Replace(key, value []byte, flags uint32, exptime int64) error
	CAS(key, value []byte, flags uint32, exptime int64, cas uint64) error
	Delete(key []byte) error
	Increment(key []byte, delta uint64) (uint64, error)
	Decrement(key []byte, delta uint64) (uint64, error)
	Append(key, data []byte) error
	Prepend(key, data []byte) error
	Touch(key []byte, exptime int64) error
	GetAndTouch(key []byte, exptime int64) ([]byte, uint32, error)
	MGet(keys [][]byte) ([]core.GetResult, error)
	ExecBatch(ops []BatchOp) ([]BatchResult, error)
	FlushAll() error
}

var (
	_ KV = (*Session)(nil)
	_ KV = (*ClusterSession)(nil)
)

// executor is whatever carries operations to the data plane: a Session
// crosses its store's gate, a ClusterSession first routes to the owning
// shard's Session. do executes one op, overwriting *r; a failure of the
// crossing itself (rejection, crash, shard down) lands in r.Err like the
// op's own outcome. batch executes ops in order, overwriting res (one slot
// per op) and appending every retrieved value to vbuf, returned as grown;
// a Session whose one crossing fails returns that, and res is not to be read.
// Both work in what they are lent and allocate nothing.
type executor interface {
	do(op *BatchOp, r *BatchResult)
	batch(ops []BatchOp, res []BatchResult, vbuf []byte) ([]byte, error)
}

// verbs spells the API once, for every executor. A session models a
// thread, so it owns one call frame — op and res — and arguments and
// result cross the gate where they lie: a frame built per call would
// escape through the executor and cost every operation an allocation.
// A batch's frame is the session's too, results and value bytes included.
type verbs struct {
	x   executor
	op  BatchOp
	res BatchResult

	ops     []BatchOp        // MGet's keys as ops, wiped before it returns
	results []BatchResult    // ... and their results
	gets    []core.GetResult // MGet's results, lent until the next batch
	batched []BatchResult    // ExecBatch's results, the same
	vbuf    []byte           // the value bytes both lend, the same
}

func (v *verbs) exec(op BatchOp) *BatchResult {
	v.op = op
	v.x.do(&v.op, &v.res)
	return &v.res
}

// Get retrieves the value and flags stored under key.
func (v *verbs) Get(key []byte) ([]byte, uint32, error) {
	r := v.exec(BatchOp{Code: BatchGet, Key: key})
	return r.Value, r.Flags, r.Err
}

// Gets also returns the CAS generation, for later CAS stores. A live
// resize preserves generations, so the token stays valid across a move.
func (v *verbs) Gets(key []byte) ([]byte, uint32, uint64, error) {
	r := v.exec(BatchOp{Code: BatchGet, Key: key})
	return r.Value, r.Flags, r.CAS, r.Err
}

// Set stores value under key unconditionally.
func (v *verbs) Set(key, value []byte, flags uint32, exptime int64) error {
	return v.exec(BatchOp{Code: BatchSet, Key: key, Value: value, Flags: flags, Exptime: exptime}).Err
}

// Add stores only if key is absent.
func (v *verbs) Add(key, value []byte, flags uint32, exptime int64) error {
	return v.exec(BatchOp{Code: BatchAdd, Key: key, Value: value, Flags: flags, Exptime: exptime}).Err
}

// Replace stores only if key is present.
func (v *verbs) Replace(key, value []byte, flags uint32, exptime int64) error {
	return v.exec(BatchOp{Code: BatchReplace, Key: key, Value: value, Flags: flags, Exptime: exptime}).Err
}

// CAS stores only if the entry's generation equals cas.
func (v *verbs) CAS(key, value []byte, flags uint32, exptime int64, cas uint64) error {
	return v.exec(BatchOp{Code: BatchCAS, Key: key, Value: value, Flags: flags, Exptime: exptime, CAS: cas}).Err
}

// Delete removes key.
func (v *verbs) Delete(key []byte) error {
	return v.exec(BatchOp{Code: BatchDelete, Key: key}).Err
}

// Increment adds delta to a numeric value.
func (v *verbs) Increment(key []byte, delta uint64) (uint64, error) {
	r := v.exec(BatchOp{Code: BatchIncr, Key: key, Delta: delta})
	return r.Num, r.Err
}

// Decrement subtracts delta, saturating at zero.
func (v *verbs) Decrement(key []byte, delta uint64) (uint64, error) {
	r := v.exec(BatchOp{Code: BatchDecr, Key: key, Delta: delta})
	return r.Num, r.Err
}

// Append concatenates data after the existing value.
func (v *verbs) Append(key, data []byte) error {
	return v.exec(BatchOp{Code: BatchAppend, Key: key, Value: data}).Err
}

// Prepend concatenates data before the existing value.
func (v *verbs) Prepend(key, data []byte) error {
	return v.exec(BatchOp{Code: BatchPrepend, Key: key, Value: data}).Err
}

// Touch updates an entry's expiry.
func (v *verbs) Touch(key []byte, exptime int64) error {
	return v.exec(BatchOp{Code: BatchTouch, Key: key, Exptime: exptime}).Err
}

// GetAndTouch retrieves a value and updates its expiry in one call.
func (v *verbs) GetAndTouch(key []byte, exptime int64) ([]byte, uint32, error) {
	r := v.exec(BatchOp{Code: BatchGAT, Key: key, Exptime: exptime})
	return r.Value, r.Flags, r.Err
}

// ExecBatch executes ops in order — through a single trampoline crossing
// on a Session, one per owning shard on a ClusterSession — so
// crossings-per-op falls as 1/len(ops). Results are positional, and lent
// with their values until the session's next MGet or ExecBatch (copy to
// keep); each op's failure lands in its own BatchResult.Err without
// affecting siblings, and so does one shard's failed crossing, in each of
// that shard's slots. The returned error is a Session's own crossing
// failing (rejection, crash): no results are available.
func (v *verbs) ExecBatch(ops []BatchOp) ([]BatchResult, error) {
	res := fit(&v.batched, len(ops))
	if err := v.runBatch(ops, res); err != nil {
		return nil, err
	}
	return res, nil
}

// MGet retrieves many keys as one batch of gets, the protected-library
// counterpart of the socket client's pipelined quiet-get batching. Results
// are positional and lent as ExecBatch's are; a key that is missing, or
// whose shard failed its crossing, has Found == false.
func (v *verbs) MGet(keys [][]byte) ([]core.GetResult, error) {
	ops, res := fit(&v.ops, len(keys)), fit(&v.results, len(keys))
	for i, k := range keys {
		ops[i].Code, ops[i].Key = BatchGet, k // all MGet ever writes there
	}
	var out []core.GetResult
	err := v.runBatch(ops, res)
	if err == nil {
		out = fit(&v.gets, len(keys))
		for i := range res {
			if r, o := &res[i], &out[i]; r.Err == nil { // by field: a literal is built on the stack, then copied
				o.Value, o.Flags, o.CAS, o.Found = r.Value, r.Flags, r.CAS, true
			} else {
				*o = core.GetResult{}
			}
		}
	}
	// The scratch outlives the call; the caller's keys must not.
	clear(ops)
	clear(res)
	return out, err
}

// runBatch lends a batch the session's value buffer; every retrieved value
// is appended to it. The buffer follows the batch in hand: a batch whose
// values fill under a quarter of it drops it, so a huge batch does not
// leave its buffer to the small ones after it, and a batch that returns no
// value bytes neither uses nor judges it. A failed crossing leaves no
// result behind.
func (v *verbs) runBatch(ops []BatchOp, res []BatchResult) error {
	vbuf, err := v.x.batch(ops, res, v.vbuf[:0])
	if err != nil {
		clear(res)
		return err
	}
	if len(vbuf) > 0 && cap(vbuf) > 4*len(vbuf) {
		vbuf = nil
	}
	v.vbuf = vbuf
	return nil
}

// lend returns n elements of *buf, the scratch of whoever models the
// thread, replacing it if it is too short.
func lend[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// fit is lend for a session's batch frame, which follows the batch in
// hand: it also replaces a buffer more than four times longer than n, and
// clears what lies past n, so that nothing of a larger earlier batch stays
// reachable from it.
func fit[T any](buf *[]T, n int) []T {
	if cap(*buf) > 4*n {
		*buf = nil
	}
	s := lend(buf, n)
	clear((*buf)[n:])
	return s
}

// entryNames is the library's export table (HODOR_FUNC_EXPORT analog).
var entryNames = []string{
	"memcached_get", "memcached_set", "memcached_add", "memcached_replace",
	"memcached_cas", "memcached_delete", "memcached_increment",
	"memcached_decrement", "memcached_append", "memcached_prepend",
	"memcached_touch", "memcached_flush", "memcached_stat",
	"memcached_execute_batch",
}

func registerEntryPoints(lib *hodor.Library) {
	for _, n := range entryNames {
		lib.RegisterEntry(n)
	}
	lib.OnInit(func(p *proc.Process) error {
		// Runs with the store owner's effective UID: this is where the
		// real system opens and maps the K-V store's backing file with
		// permissions the client itself does not have.
		if p.EUID() != lib.OwnerUID {
			return fmt.Errorf("memcached: library init without owner credentials")
		}
		return nil
	})
}

// ClientProcess is one application process that has loaded the protected
// library: it owns a private mapping of the shared heap and a Hodor link
// state. Create sessions from it, one per client thread.
type ClientProcess struct {
	b   *Bookkeeper
	p   *proc.Process
	res *hodor.LoadResult

	sessions sync.Map // the open *Session keys; Close takes one out, once
}

// NewClientProcess simulates launching a client application under the
// modified loader: the binary is scanned for stray wrpkru instructions,
// trampolines are linked, and library initialization runs under the store
// owner's EUID before reverting to uid.
func (b *Bookkeeper) NewClientProcess(uid int) (*ClientProcess, error) {
	p, err := proc.NewProcess(uid, b.heap, b.nextBase())
	if err != nil {
		return nil, err
	}
	res, err := (hodor.Loader{}).Load(p, hodor.Binary{Name: fmt.Sprintf("client-%d", p.ID)}, b.lib)
	if err != nil {
		return nil, err
	}
	return &ClientProcess{b: b, p: p, res: res}, nil
}

// Process exposes the underlying simulated process (kill injection, views).
func (cp *ClientProcess) Process() *proc.Process { return cp.p }

// Kill delivers the SIGKILL analog to the process: threads inside library
// calls complete; everything else stops.
func (cp *ClientProcess) Kill() { cp.p.Kill() }

// Close is the process's exit: it is killed, so no thread of it enters the
// library again, its sessions are released, and the library forgets it. A
// call in flight (a killed process's runs to completion) keeps its session,
// active until the call retires; its thread closes it. Call Close when no
// thread of the process is starting a call.
func (cp *ClientProcess) Close() {
	cp.p.Kill()
	cp.sessions.Range(func(k, _ any) bool {
		if s := k.(*Session); !s.hs.InCall() {
			s.Close()
		}
		return true
	})
	cp.b.lib.Forget(cp.p)
}

// Session is one client thread's handle on the store. All operations are
// direct function calls through Hodor trampolines (unless created with
// NewSessionNoHodor, the paper's unprotected comparison point). A Session
// is not safe for concurrent use — it models a thread.
type Session struct {
	verbs
	hs     *hodor.Session
	th     *proc.Thread
	ctx    *core.Ctx
	b      *Bookkeeper
	cp     *ClientProcess
	direct bool // skip trampolines ("Plib, No Hodor")

	// tenantDom/tenantPage are this session's own protection domain (gate
	// hardening): a virtual protection key plus a page-sized arena for the
	// tenant's security-sensitive buffers, bound by the trampoline on every
	// call so sibling tenants stay mutually fenced. Torn down on Close, or
	// by the recovery sweep when the tenant dies or is reaped.
	tenantDom  *hodor.Domain
	tenantPage uint64

	fnOp    func(*proc.Thread, frame) (struct{}, error)
	fnBatch func(*proc.Thread, batchFrame) ([]byte, error)
	fnFlush func(*proc.Thread, struct{}) (struct{}, error)
	fnStats func(*proc.Thread, struct{}) (core.Stats, error)
}

// frame is what one operation carries across the gate: where its
// arguments and its result lie, not copies of them.
type frame struct {
	op  *BatchOp
	res *BatchResult
}

// batchFrame is the same for a batch, value buffer included.
type batchFrame struct {
	ops  []BatchOp
	res  []BatchResult
	vbuf []byte
}

// NewSession creates a trampolined session for one client thread.
func (cp *ClientProcess) NewSession() (*Session, error) {
	return cp.newSession(false)
}

// NewSessionNoHodor creates a session that calls the library directly,
// without trampolines or protection — the paper's "Plib, No Hodor"
// configuration, used to measure the marginal cost of protection (~5%).
func (cp *ClientProcess) NewSessionNoHodor() (*Session, error) {
	return cp.newSession(true)
}

func (cp *ClientProcess) newSession(direct bool) (*Session, error) {
	th := cp.p.NewThread()
	hs, err := cp.res.Attach(th, cp.b.lib)
	if err != nil {
		return nil, err
	}
	ctx := cp.b.store.NewCtx(th.LockOwner())
	s := &Session{hs: hs, th: th, ctx: ctx, b: cp.b, cp: cp, direct: direct}
	if !direct {
		if err := cp.b.attachTenant(s); err != nil {
			ctx.Close()
			hs.Detach()
			return nil, err
		}
		// Cooperative abort: the batch dispatcher polls the watchdog's
		// abort request between operations of an over-budget batch.
		ctx.AbortCheck = hs.AbortRequested
	}
	cp.sessions.Store(s, nil)
	s.x = s
	s.fnOp = func(_ *proc.Thread, f frame) (struct{}, error) {
		ctx.Do(f.op, f.res)
		return struct{}{}, nil
	}
	s.fnBatch = func(_ *proc.Thread, f batchFrame) ([]byte, error) {
		return ctx.ExecBatch(f.ops, f.res, f.vbuf), nil
	}
	s.fnFlush = func(_ *proc.Thread, _ struct{}) (struct{}, error) {
		ctx.FlushAll()
		return struct{}{}, nil
	}
	s.fnStats = func(_ *proc.Thread, _ struct{}) (core.Stats, error) {
		return ctx.Store().Stats(), nil
	}
	return s, nil
}

// Thread exposes the session's simulated thread.
func (s *Session) Thread() *proc.Thread { return s.th }

// Ctx exposes the raw operation context, outside the gate: the cost
// ledger's bare-core rungs, and tests that reach into the store beneath a
// session. The session itself enters it only through Ctx.Do and
// Ctx.ExecBatch.
func (s *Session) Ctx() *core.Ctx { return s.ctx }

// Hodor exposes the underlying hodor session (gate-hardening tests drive
// the watchdog and inspect escalation through it).
func (s *Session) Hodor() *hodor.Session { return s.hs }

// TenantDomain returns this session's own protection domain, or nil for a
// direct session.
func (s *Session) TenantDomain() *hodor.Domain { return s.tenantDom }

// TenantArena returns the heap offset and size of this session's private
// arena page (0, 0 without a tenant domain).
func (s *Session) TenantArena() (off, n uint64) {
	if s.tenantDom == nil {
		return 0, 0
	}
	return s.tenantPage, shm.PageSize
}

// attachTenant equips a new session with its own protection domain: one
// virtual key from the bookkeeper's vtable and a page-sized arena carved
// from the heap and re-tagged under that key.
func (b *Bookkeeper) attachTenant(s *Session) error {
	page, err := s.ctx.AllocPage()
	if err != nil {
		return err
	}
	dom := hodor.NewVirtualDomain(b.heap, b.pt, b.vt)
	if err := dom.Protect(page, shm.PageSize); err != nil {
		b.pt.Assign(page, shm.PageSize, b.dom.Key) //nolint:errcheck
		s.ctx.FreePage(page)                       //nolint:errcheck
		return err
	}
	s.hs.Tenant = dom
	s.tenantDom = dom
	s.tenantPage = page
	// Warm the mapping and pre-sync the thread against the remap our own
	// mapping just caused, so the session's first call costs the same two
	// wrpkru as every later one (the thread's register is AllRestricted
	// here, which is valid against any generation). Skipped harmlessly if
	// every hardware key happens to be pinned right now — the first call
	// then pays one lazy sync.
	if _, err := b.vt.Bind(dom.VKey); err == nil {
		b.vt.Unbind(dom.VKey)
		s.th.SetVTGen(b.vt.Gen())
	}
	b.tenants.Store(s, nil)
	return nil
}

// untenant tears down s's protection domain, once, for whichever of
// Close and the recovery sweep asks first: the virtual key retires, the
// arena page returns to the library's key and, through ctx, to the heap.
func (b *Bookkeeper) untenant(s *Session, ctx *core.Ctx) {
	if _, held := b.tenants.LoadAndDelete(s); !held {
		return
	}
	if err := b.vt.FreeVirtual(s.tenantDom.VKey); err != nil {
		// Still pinned by a dead owner's call. Force the teardown; the pin
		// holder's Unbind becomes a no-op.
		b.vt.Revoke(s.tenantDom.VKey)
	}
	b.pt.Assign(s.tenantPage, shm.PageSize, b.dom.Key) //nolint:errcheck
	ctx.FreePage(s.tenantPage)                         //nolint:errcheck
}

// Healthy reports whether the session can still carry calls: its process
// is alive and its gate session has not been reaped by the watchdog. A
// session that fails this check is permanently dead — every future call
// returns ErrSessionReaped or ErrKilled — and must not be reused.
func (s *Session) Healthy() bool {
	return !s.hs.Reaped() && !s.th.Proc.Killed()
}

// Close returns the session's cached heap blocks to the shared pool, tears
// down its tenant domain and detaches it from the gate. A session the
// watchdog reaped leaves its domain to the recovery sweep that the reap
// started. Closing a session twice, or after its process, does nothing.
func (s *Session) Close() {
	if _, open := s.cp.sessions.LoadAndDelete(s); !open {
		return
	}
	if s.tenantDom != nil && !s.hs.Reaped() {
		s.b.untenant(s, s.ctx)
	}
	s.ctx.Close()
	s.hs.Detach()
}

// call dispatches through the trampoline, or directly in No-Hodor mode.
// Overload rejections — gate saturation, tenant quota, hardware-key pin
// exhaustion — are backpressure, not faults: the session retries with
// exponential backoff and jitter, bounded by the recovery grace, and only
// then surfaces the typed error.
func call[A, R any](s *Session, fn func(*proc.Thread, A) (R, error), a A) (R, error) {
	if s.direct {
		if s.th.Proc.Killed() {
			var zero R
			return zero, &proc.ErrKilled{PID: s.th.Proc.ID}
		}
		return fn(s.th, a)
	}
	r, err := hodor.Call(s.hs, fn, a)
	if err != nil && errors.Is(err, hodor.ErrOverloaded) {
		r, err = retryOverloaded(s, fn, a)
	}
	return r, err
}

// retryOverloaded spins a rejected call against transient gate overload.
// Every cause of ErrOverloaded clears when some in-flight call retires, so
// short waits win quickly in steady state; the recovery grace bounds the
// total wait for pathological cases (a hostile tenant camping on the gate —
// whom the watchdog will reap within 2x its budget anyway).
func retryOverloaded[A, R any](s *Session, fn func(*proc.Thread, A) (R, error), a A) (R, error) {
	deadline := time.Now().Add(s.hs.Lib.Grace())
	backoff := 2 * time.Microsecond
	for {
		time.Sleep(backoff + time.Duration(rand.Int63n(int64(backoff)+1)))
		if backoff < 256*time.Microsecond {
			backoff *= 2
		}
		r, err := hodor.Call(s.hs, fn, a)
		if err == nil || !errors.Is(err, hodor.ErrOverloaded) || time.Now().After(deadline) {
			return r, err
		}
	}
}

// cross carries one op across the gate in place. A failure of the crossing
// itself (rejection, crash, killed process) replaces the result and is
// returned, so a router can feed its breaker the crossing's verdict without
// having to tell it apart from the op's own outcome in r.Err.
func (s *Session) cross(op *BatchOp, r *BatchResult) error {
	_, err := call(s, s.fnOp, frame{op, r})
	if err != nil {
		*r = BatchResult{Err: err}
	}
	return err
}

func (s *Session) do(op *BatchOp, r *BatchResult) { s.cross(op, r) } //nolint:errcheck // also in r.Err

// FlushAll removes every entry.
func (s *Session) FlushAll() error {
	_, err := call(s, s.fnFlush, struct{}{})
	return err
}

// Stats returns the store's counters.
func (s *Session) Stats() (core.Stats, error) {
	return call(s, s.fnStats, struct{}{})
}

// batch carries ops across the gate in one crossing: one admission and one
// rights amplification cover them all.
func (s *Session) batch(ops []BatchOp, res []BatchResult, vbuf []byte) ([]byte, error) {
	return call(s, s.fnBatch, batchFrame{ops, res, vbuf})
}

// GetAsync is §3.1's asynchronous API: a direct call completes
// immediately, so the callback runs before GetAsync returns. Callers who
// want to amortize crossings over many keys have MGet and ExecBatch.
func (s *Session) GetAsync(key []byte, cb func(value []byte, flags uint32, err error)) {
	cb(s.Get(key))
}
