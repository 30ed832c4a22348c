package memcached

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"

	"plibmc/internal/client"
	"plibmc/internal/core"
	"plibmc/internal/hodor"
	"plibmc/internal/proc"
	"plibmc/internal/protocol"
)

// Hybrid mode (paper §6): "there is no reason … not to allow the memcached
// background process to provide a socket-based interface for remote clients
// while still permitting local clients to use the Hodor interface." The
// bookkeeping process serves both wire protocols over any listener; local
// processes keep calling through trampolines into the very same store.

// RemoteServer is the bookkeeper's socket front end for remote clients.
type RemoteServer struct{ frontEnd[*Session] }

// ServeRemote starts accepting remote connections. The server is one client
// process of the store, and each connection borrows one of its sessions, so
// remote clients cross the gate like local ones. Close the returned server
// to stop.
func (b *Bookkeeper) ServeRemote(network, addr string) (*RemoteServer, error) {
	cp, err := b.NewClientProcess(ownerUID)
	if err != nil {
		return nil, fmt.Errorf("memcached: hybrid attach: %w", err)
	}
	rs := &RemoteServer{frontEnd[*Session]{
		pool: pool[*Session]{open: cp.NewSession},
		admin: func(s *Session, cmd *protocol.Command) *protocol.Reply {
			return adminCore(b.store, s.FlushAll, cmd, "1.6.0-plib-hybrid")
		},
		exit: cp.Close,
	}}
	if err := rs.listen(network, addr); err != nil {
		return nil, fmt.Errorf("memcached: hybrid listener: %w", err)
	}
	return rs, nil
}

// frontEnd is what both socket servers are made of: a listener, and a pool
// of gated sessions — a Session, or a ClusterSession — from which every
// connection borrows one for its lifetime. admin answers the commands that
// are not keyed operations, with the connection's session; exit closes the
// client process the sessions belong to.
type frontEnd[S interface {
	executor
	pooled
}] struct {
	ln     net.Listener
	connWG sync.WaitGroup
	pool   pool[S]
	admin  func(s S, cmd *protocol.Command) *protocol.Reply
	exit   func()
}

// listen starts serving; a server that cannot listen exits its process.
func (fe *frontEnd[S]) listen(network, addr string) error {
	ln, err := net.Listen(network, addr)
	if err != nil {
		fe.exit()
		return err
	}
	fe.ln = ln
	go fe.acceptLoop()
	return nil
}

// Addr returns the listener address.
func (fe *frontEnd[S]) Addr() net.Addr { return fe.ln.Addr() }

// Close stops the listener, waits for in-flight connections, closes the
// sessions they leave idle and then the server's client process.
func (fe *frontEnd[S]) Close() {
	fe.ln.Close()
	fe.connWG.Wait()
	fe.pool.Close()
	fe.exit()
}

func (fe *frontEnd[S]) acceptLoop() {
	for {
		c, err := fe.ln.Accept()
		if err != nil {
			return
		}
		fe.connWG.Add(1)
		go fe.handle(c)
	}
}

// handle serves one connection with a borrowed session; a connection the
// store cannot give a session is closed unanswered.
func (fe *frontEnd[S]) handle(c net.Conn) {
	defer fe.connWG.Done()
	defer c.Close()
	s, err := fe.pool.Get()
	if err != nil {
		return
	}
	defer fe.pool.Put(s)
	wc := &wireConn{x: s, admin: func(cmd *protocol.Command) *protocol.Reply { return fe.admin(s, cmd) }}
	protocol.ServeConn(c, 0, wc.dispatchRun)
}

// wireConn is one connection's dispatcher. A connection models a thread,
// so what a run needs — its commands as ops, their result slots, the
// buffer the retrieved values share — is its own, lent to the session and
// reused run after run.
type wireConn struct {
	x     executor
	admin func(cmd *protocol.Command) *protocol.Reply
	ops   []core.BatchOp
	spans []int // batch ops consumed per command
	res   []core.BatchResult
	vbuf  []byte
	one   core.BatchResult // the lone op's result frame
}

// dispatchRun executes one pipelined run of commands over the connection's
// session and writes the replies in command order. Every contiguous
// stretch of keyed commands (including the expansion of ASCII multi-key
// gets) rides one batch, so remote pipelines amortize the gate exactly
// like local ExecBatch callers; a lone op is executed on its own, which
// keeps its latency class, and the admin verbs are answered one by one.
//
// The commands borrow the connection's read window (protocol.ServeConn),
// and so do the ops translated from them: the stores copy keys and values
// into their heaps, and the ops are wiped before the window is released.
func (wc *wireConn) dispatchRun(w *bufio.Writer, binary bool, cmds []protocol.Command) {
	for i := 0; i < len(cmds); {
		ops, spans := wc.ops[:0], wc.spans[:0]
		j := i
		for ; j < len(cmds); j++ {
			n := len(ops)
			if ops = appendOps(ops, &cmds[j]); len(ops) == n {
				break
			}
			spans = append(spans, len(ops)-n)
		}
		switch len(ops) {
		case 0:
			writeReply(w, binary, &cmds[i], wc.admin(&cmds[i]))
			i++
		case 1:
			wc.x.do(&ops[0], &wc.one)
			rep := replyFor(&cmds[i], &wc.one)
			writeReply(w, binary, &cmds[i], &rep)
			i++
		default:
			res := lend(&wc.res, len(ops))
			if vbuf, err := wc.x.batch(ops, res, wc.vbuf[:0]); err != nil {
				for k := range res { // the one crossing failed: so did every op
					res[k] = core.BatchResult{Err: err}
				}
			} else {
				wc.vbuf = vbuf
			}
			for k, n := range spans {
				if cmd := &cmds[i+k]; n == 1 {
					rep := replyFor(cmd, &res[0])
					writeReply(w, binary, cmd, &rep)
				} else {
					writeValues(w, cmd, res[:n])
				}
				res = res[n:]
			}
			i = j
		}
		clear(ops)
		wc.ops, wc.spans = ops, spans
	}
}

// opCodes is the one translation between the wire's keyed operations and
// the data plane's batch codes, indexed by wire op: appendOps reads it
// from wire to store, a SocketSession (through wireOp) back. A command
// that is not a keyed operation (flush_all, stats, version, noop, quit)
// has no entry.
var opCodes = [...]struct {
	code  core.BatchCode
	keyed bool
}{
	protocol.OpGet: {core.BatchGet, true}, protocol.OpGAT: {core.BatchGAT, true},
	protocol.OpSet: {core.BatchSet, true}, protocol.OpAdd: {core.BatchAdd, true},
	protocol.OpReplace: {core.BatchReplace, true}, protocol.OpCAS: {core.BatchCAS, true},
	protocol.OpAppend: {core.BatchAppend, true}, protocol.OpPrepend: {core.BatchPrepend, true},
	protocol.OpDelete: {core.BatchDelete, true}, protocol.OpIncr: {core.BatchIncr, true},
	protocol.OpDecr: {core.BatchDecr, true}, protocol.OpTouch: {core.BatchTouch, true},
}

// wireOp is code's wire op, read back from opCodes; ok is false for the
// migration's codes, which have none.
func wireOp(code core.BatchCode) (op protocol.Op, ok bool) {
	for i, e := range opCodes {
		if e.keyed && e.code == code {
			return protocol.Op(i), true
		}
	}
	return 0, false
}

// appendOps appends cmd's batch encoding to ops — one op, or one per key
// for an ASCII multi-key get — and nothing for a command that is not a
// keyed operation.
func appendOps(ops []core.BatchOp, cmd *protocol.Command) []core.BatchOp {
	if int(cmd.Op) >= len(opCodes) || !opCodes[cmd.Op].keyed {
		return ops
	}
	code := opCodes[cmd.Op].code
	// Each code reads only its own fields (see BatchOp), so the command's
	// are copied across wholesale.
	ops = append(ops, core.BatchOp{Code: code, Key: cmd.Key, Value: cmd.Value,
		Flags: cmd.Flags, Exptime: cmd.Exptime, Delta: cmd.Delta, CAS: cmd.CAS})
	for _, k := range cmd.Keys {
		ops = append(ops, core.BatchOp{Code: code, Key: k})
	}
	return ops
}

// replyFor renders one op's result as the reply to cmd: the one
// translation back from the data plane's vocabulary to the wire's. (By
// value, so a dispatcher's replies stay on its stack.)
func replyFor(cmd *protocol.Command, r *core.BatchResult) protocol.Reply {
	rep := protocol.Reply{Status: coreStatus(r.Err), Opaque: cmd.Opaque}
	if r.Err == nil {
		rep.Value, rep.Flags, rep.CAS, rep.Numeric = r.Value, r.Flags, r.CAS, r.Num
	} else if rep.Status == protocol.StatusTempFailure {
		rep.Message, _ = ShardDownFrame(r.Err)
	}
	return rep
}

func writeReply(w *bufio.Writer, binary bool, cmd *protocol.Command, rep *protocol.Reply) {
	if binary {
		protocol.WriteBinaryReply(w, cmd, rep)
	} else {
		protocol.WriteASCIIReply(w, cmd, rep)
	}
}

// writeValues renders an ASCII multi-key get: one VALUE block per hit
// under a single END.
func writeValues(w *bufio.Writer, cmd *protocol.Command, res []core.BatchResult) {
	// A key whose crossing failed must not masquerade as a miss: the
	// response ends with the SERVER_ERROR line instead of END so the
	// client knows the multiget was partial.
	var failed *core.BatchResult
	for i := range res {
		if res[i].Err == nil {
			protocol.WriteASCIIValue(w, cmd.KeyAt(i), res[i].Flags, res[i].Value, res[i].CAS)
		} else if failed == nil && gateFailure(res[i].Err) {
			failed = &res[i]
		}
	}
	if failed != nil {
		rep := replyFor(cmd, failed)
		protocol.WriteASCIIReply(w, cmd, &rep)
		return
	}
	w.WriteString("END\r\n")
}

// gateFailure reports whether err is the gate's verdict rather than the
// op's outcome: the crossing was refused (shard down, poisoned, still
// recovering, overloaded, session reaped or process killed) or did not
// complete (crashed, aborted by the watchdog). A breaker fast-fail unwraps
// to ErrPoisoned or ErrRecoveryTimeout.
func gateFailure(err error) bool {
	var crash *hodor.CrashError
	var killed *proc.ErrKilled
	return errors.Is(err, hodor.ErrPoisoned) || errors.Is(err, hodor.ErrRecoveryTimeout) ||
		errors.Is(err, hodor.ErrOverloaded) || errors.Is(err, hodor.ErrSessionReaped) ||
		errors.Is(err, core.ErrCallAborted) || errors.As(err, &crash) || errors.As(err, &killed)
}

// outcomes pairs each library error that is a key's outcome with the wire
// status that carries it: the one translation between the two, read by
// coreStatus from error to status and by replyErr back, each taking the
// first row that matches. Two rows are read one way only: a CAS mismatch
// travels as EXISTS, and NOT_STORED is the baseline's answer to an append
// or prepend on a missing key.
var outcomes = [...]struct {
	status protocol.Status
	err    error
}{
	{protocol.StatusKeyNotFound, core.ErrNotFound},
	{protocol.StatusKeyExists, core.ErrExists},
	{protocol.StatusKeyExists, core.ErrCASMismatch},
	{protocol.StatusNonNumeric, core.ErrNotNumeric},
	{protocol.StatusValueTooLarge, core.ErrValueTooBig},
	{protocol.StatusOutOfMemory, core.ErrNoSpace},
	{protocol.StatusNotStored, core.ErrNotFound},
}

// coreStatus translates an op's error into a wire status; a failed
// crossing is a temporary server failure, never a miss or a client error.
func coreStatus(err error) protocol.Status {
	if err == nil {
		return protocol.StatusOK
	}
	if gateFailure(err) {
		return protocol.StatusTempFailure
	}
	for i := range outcomes {
		if errors.Is(err, outcomes[i].err) {
			return outcomes[i].status
		}
	}
	return protocol.StatusInvalidArgs
}

// replyErr translates a reply's status into the library's error: a key's
// outcome, or else the server's failure in the server's words.
func replyErr(rep *protocol.Reply) error {
	if rep.Status == protocol.StatusOK {
		return nil
	}
	for i := range outcomes {
		if outcomes[i].status == rep.Status {
			return outcomes[i].err
		}
	}
	if rep.Message != "" {
		return fmt.Errorf("memcached: %v: %s", rep.Status, rep.Message)
	}
	return fmt.Errorf("memcached: %v", rep.Status)
}

// SocketSession is the key-value API over a connection to any memcached
// server — the baseline, or either front end here: the verbs a Session
// has, one round trip per operation and one pipelined write per batch. A
// failure of the connection fails the call (the batch, for a batch) and
// closes the connection; Reconnect the client to go on. Like its client it
// is not safe for concurrent use.
type SocketSession struct {
	verbs
	c    *client.Client
	cmds []protocol.Command // a batch's commands, wiped after it
	reps []*protocol.Reply  // ... their replies
	sent []int              // ... and the op each command carries
}

var _ KV = (*SocketSession)(nil)

// NewSocketSession speaks the API over c, which the caller keeps and closes.
func NewSocketSession(c *client.Client) *SocketSession {
	s := &SocketSession{c: c}
	s.x = s
	return s
}

// command renders op as the command that carries it over the wire, or
// refuses it into r, as libmemcached does: a key too long for the wire or
// one the connection's protocol cannot carry (ErrBadKey), or a code with
// no wire op. A CAS with token 0 can never match, so it goes as a Get,
// whose hit is the mismatch (as a binary Set with cas 0 it would store
// unconditionally).
func (s *SocketSession) command(cmd *protocol.Command, op *BatchOp, r *BatchResult) bool {
	w, ok := wireOp(op.Code)
	switch {
	case len(op.Key) > core.MaxKeyLen:
		*r = BatchResult{Err: ErrKeyTooLong}
		return false
	case !ok:
		*r = BatchResult{Err: fmt.Errorf("memcached: batch op %d has no wire command", op.Code)}
		return false
	case op.Code == BatchCAS && op.CAS == 0:
		*cmd = protocol.Command{Op: protocol.OpGet, Key: op.Key}
	default:
		*cmd = protocol.Command{Op: w, Key: op.Key, Value: op.Value,
			Flags: op.Flags, Exptime: op.Exptime, Delta: op.Delta, CAS: op.CAS}
	}
	if err := s.c.Check(cmd); err != nil {
		*r = BatchResult{Err: err}
		return false
	}
	return true
}

// wireResult is op's result from rep, the reply to its command. The value
// owns its bytes already.
func wireResult(op *BatchOp, rep *protocol.Reply, r *BatchResult) {
	err := replyErr(rep)
	if op.Code == BatchCAS && (err == ErrExists || err == nil && op.CAS == 0) {
		err = ErrCASMismatch
	}
	*r = BatchResult{Err: err}
	if err == nil {
		r.Value, r.Flags, r.CAS, r.Num = rep.Value, rep.Flags, rep.CAS, rep.Numeric
	}
}

func (s *SocketSession) do(op *BatchOp, r *BatchResult) {
	var cmd protocol.Command
	if !s.command(&cmd, op, r) {
		return
	}
	rep, err := s.c.Do(&cmd)
	if err != nil {
		*r = BatchResult{Err: err}
		return
	}
	wireResult(op, rep, r)
}

// batch pipelines every op the wire can carry. The values own their bytes,
// so vbuf is returned as lent.
func (s *SocketSession) batch(ops []BatchOp, res []BatchResult, vbuf []byte) ([]byte, error) {
	cmds, sent := s.cmds[:0], s.sent[:0]
	for i := range ops {
		var cmd protocol.Command
		if s.command(&cmd, &ops[i], &res[i]) {
			cmds, sent = append(cmds, cmd), append(sent, i)
		}
	}
	reps := lend(&s.reps, len(cmds))
	var err error
	if len(cmds) > 0 {
		err = s.c.Pipeline(cmds, reps)
	}
	if err == nil {
		for k, i := range sent {
			wireResult(&ops[i], reps[k], &res[i])
		}
	}
	clear(cmds)
	clear(reps)
	s.cmds, s.sent = cmds, sent
	return vbuf, err
}

// FlushAll empties the server.
func (s *SocketSession) FlushAll() error {
	rep, err := s.c.Do(&protocol.Command{Op: protocol.OpFlushAll})
	if err != nil {
		return err
	}
	return replyErr(rep)
}

// DispatchCore executes one protocol command against a protected-library
// store context: translate, Ctx.Do, render — or an admin verb.
func DispatchCore(ctx *core.Ctx, cmd *protocol.Command, version string) *protocol.Reply {
	var one [1]core.BatchOp
	ops := appendOps(one[:0], cmd)
	if len(ops) == 0 {
		return adminCore(ctx.Store(), func() error { ctx.FlushAll(); return nil }, cmd, version)
	}
	var r core.BatchResult
	ctx.Do(&ops[0], &r)
	rep := replyFor(cmd, &r)
	return &rep
}

// adminCore answers the commands that are not keyed operations against
// one store: stats are read from it directly, and flush is how the caller
// empties it.
func adminCore(store *core.Store, flush func() error, cmd *protocol.Command, version string) *protocol.Reply {
	rep := &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
	switch cmd.Op {
	case protocol.OpFlushAll:
		if cmd.Exptime != 0 {
			rep.Status = protocol.StatusInvalidArgs
		} else if err := flush(); err != nil {
			*rep = replyFor(cmd, &core.BatchResult{Err: err})
		}
	case protocol.OpStats:
		if cmd.StatsArg == "latency" {
			// The heap-resident scattered histograms, merged across slots.
			ls := store.Latency()
			for class := 0; class < core.NumLatClasses; class++ {
				h := &ls.Classes[class]
				prefix := core.LatClassNames[class]
				rep.Stats = append(rep.Stats,
					[2]string{prefix + ":count", strconv.FormatUint(h.Count(), 10)},
					[2]string{prefix + ":p50_us", strconv.FormatInt(h.Percentile(50).Microseconds(), 10)},
					[2]string{prefix + ":p99_us", strconv.FormatInt(h.Percentile(99).Microseconds(), 10)},
					[2]string{prefix + ":max_us", strconv.FormatInt(h.Max().Microseconds(), 10)},
				)
			}
			break
		}
		rep.Stats = appendStats(nil, store.Stats())
	case protocol.OpVersion:
		rep.Version = version
	case protocol.OpNoop:
	default:
		rep.Status = protocol.StatusUnknownCommand
	}
	return rep
}

// appendStats appends the default memcached counter set over st: the one
// spelling a store's and a cluster's stats replies share.
func appendStats(out [][2]string, st core.Stats) [][2]string {
	return append(out,
		[2]string{"cmd_get", strconv.FormatUint(st.Gets, 10)},
		[2]string{"get_hits", strconv.FormatUint(st.GetHits, 10)},
		[2]string{"get_misses", strconv.FormatUint(st.GetMisses, 10)},
		[2]string{"cmd_set", strconv.FormatUint(st.Sets, 10)},
		[2]string{"cmd_delete", strconv.FormatUint(st.Deletes, 10)},
		[2]string{"cmd_touch", strconv.FormatUint(st.Touches, 10)},
		[2]string{"curr_items", strconv.FormatUint(st.CurrItems, 10)},
		[2]string{"bytes", strconv.FormatUint(st.Bytes, 10)},
		[2]string{"evictions", strconv.FormatUint(st.Evictions, 10)},
		[2]string{"expired", strconv.FormatUint(st.Expired, 10)},
	)
}
