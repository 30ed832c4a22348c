package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"time"

	"plibmc/internal/core"
	"plibmc/internal/hodor"
	"plibmc/internal/proc"
	"plibmc/internal/protocol"
	"plibmc/internal/server"
	"plibmc/memcached"
)

// The traced run prices each layer from outside: the same operations are
// replayed through one rung of the stack after another, and a layer's
// self time is its rung minus the rung below. Every timed block is a
// span; counters are read at the same boundaries.

// span is one timed block. Parent is the id of the rung span the block
// belongs to, whose own parent is the workload's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int    `json:"ops"`
}

type tracer struct{ spans []span }

// begin opens a span and returns its id (ids start at 1; parent 0 is none).
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now()})
	return len(t.spans)
}

func (t *tracer) end(id, ops int) {
	s := &t.spans[id-1]
	s.End, s.Ops = now(), ops
}

// opSrc yields the single-key operations a rung replays.
type opSrc interface{ next() (opKind, uint64) }

// streamSrc flattens a workload stream into single-key ops, drawing them
// as the timed phases do, so a rung pays the same generator cost.
type streamSrc struct {
	st  *stream
	req request
	pos int
}

func (s *streamSrc) next() (opKind, uint64) {
	if s.pos == len(s.req.idxs) {
		s.st.next(&s.req)
		s.pos = 0
	}
	s.pos++
	return s.req.kind, s.req.idxs[s.pos-1]
}

// sliceSrc cycles over collected ops of one kind, for the rungs that price
// Gets and Sets apart.
type sliceSrc struct {
	kind opKind
	idxs []uint64
	pos  int
}

func (s *sliceSrc) next() (opKind, uint64) {
	idx := s.idxs[s.pos%len(s.idxs)]
	s.pos++
	return s.kind, idx
}

// rungFn executes about n ops of src through one rung — whole requests,
// so a batch rung may overshoot — and returns how many it ran and how
// many failed (a miss is not a failure).
type rungFn func(src opSrc, n int) (done, failed int)

// perOp makes a rung of a function that runs one single-key op.
func perOp(f func(kind opKind, idx uint64) bool) rungFn {
	return func(src opSrc, n int) (done, failed int) {
		for range n {
			if !f(src.next()) {
				failed++
			}
		}
		return n, failed
	}
}

// each makes a rung of a function that needs no op stream.
func each(f func() bool) rungFn {
	return func(_ opSrc, n int) (done, failed int) {
		for range n {
			if !f() {
				failed++
			}
		}
		return n, failed
	}
}

// pass is one rung's replay: blocks of block ops, each a span.
type pass struct {
	ops, failed int
	blockNs     []float64 // ns per op of each block
	mallocs     uint64
	gcCycles    uint32
	gcPauseNs   uint64
}

// nsPerOp is the median over blocks, so a preempted block does not move it.
func (p pass) nsPerOp() float64 { return median(p.blockNs) }

// meanNsPerOp is total block time over ops, comparable with an untimed run.
func (p pass) meanNsPerOp() float64 {
	sum := 0.0
	for _, b := range p.blockNs {
		sum += b
	}
	return sum / float64(len(p.blockNs))
}

func (p pass) allocsPerOp() float64 { return float64(p.mallocs) / float64(p.ops) }

// replay runs total ops of src through fn in timed blocks under a rung span.
func (t *tracer) replay(name string, root int, src opSrc, total, block int, fn rungFn) pass {
	p := pass{blockNs: make([]float64, 0, total/block)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rung := t.begin(name, root)
	for p.ops < total {
		id := t.begin(name+".block", rung)
		done, failed := fn(src, block)
		t.end(id, done)
		s := t.spans[id-1]
		p.blockNs = append(p.blockNs, float64(s.End-s.Start)/float64(done))
		p.ops += done
		p.failed += failed
	}
	t.end(rung, p.ops)
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return p
}

// --- rungs -------------------------------------------------------------------

// singleOps is the shape of every one-key-per-call rung: render the key
// (and a Set's value), then call the layer.
func singleOps(kv *keyvals, get func(key []byte) error, set func(key, val []byte, flags uint32) error) rungFn {
	return perOp(func(kind opKind, idx uint64) bool {
		var err error
		if kind == opGet {
			err = get(kv.key(0, idx))
		} else {
			err = set(kv.key(0, idx), kv.value(0, idx), kv.d.flags(idx))
		}
		return err == nil || errors.Is(err, memcached.ErrNotFound)
	})
}

// mgetOps groups the next ops' keys by 64 and looks each group up in one call.
func mgetOps(kv *keyvals, mget func(keys [][]byte) (int, error)) rungFn {
	return func(src opSrc, n int) (done, failed int) {
		for ; done < n; done += len(kv.keys) {
			for i := range kv.keys {
				_, idx := src.next()
				kv.key(i, idx)
			}
			if got, err := mget(kv.keys); err != nil || got != len(kv.keys) {
				failed += len(kv.keys)
			}
		}
		return done, failed
	}
}

// connOps replays ops through one of the timed phases' own clients with
// its full reply verification, depth requests to a window. With whole
// set the requests are the stream's own (an MGet stays an MGet);
// otherwise each is one flattened single-key op.
func connOps(c conn, depth int, whole bool) rungFn {
	win := make([]request, depth)
	return func(src opSrc, n int) (done, failed int) {
		var t tally
		for done < n {
			for i := range win {
				if whole {
					src.(*streamSrc).st.next(&win[i])
				} else {
					kind, idx := src.next()
					win[i].kind, win[i].idxs = kind, append(win[i].idxs[:0], idx)
				}
				done += len(win[i].idxs)
			}
			c.exec(win, nil)
			c.check(win, &t)
		}
		return done, int(t.Failed)
	}
}

// wireOps encodes each op as a command, parses it back, encodes the reply
// a server would send and decodes that, all on an in-memory buffer: the
// protocol layer's whole share of a round trip. It also returns the bytes
// that crossed the buffer.
func wireOps(kv *keyvals, ascii bool, bytesMoved *int) rungFn {
	var buf bytes.Buffer
	w, r := bufio.NewWriter(&buf), bufio.NewReader(&buf)
	writeCmd, readCmd := protocol.WriteBinaryCommand, protocol.ReadBinaryCommand
	writeRep := protocol.WriteBinaryReply
	readRep := func(r *bufio.Reader, _ *protocol.Command) (*protocol.Reply, error) {
		rep, _, err := protocol.ReadBinaryReply(r)
		return rep, err
	}
	if ascii {
		writeCmd, readCmd = protocol.WriteASCIICommand, protocol.ReadASCIICommand
		writeRep, readRep = protocol.WriteASCIIReply, protocol.ReadASCIIReply
	}
	return perOp(func(kind opKind, idx uint64) bool {
		cmd := protocol.Command{Op: protocol.OpGet, Key: kv.key(0, idx)}
		rep := protocol.Reply{Value: kv.value(0, idx), Flags: kv.d.flags(idx)}
		if kind == opSet {
			cmd.Op, cmd.Value, cmd.Flags = protocol.OpSet, rep.Value, rep.Flags
			rep = protocol.Reply{}
		}
		ok := writeCmd(w, &cmd) == nil && w.Flush() == nil
		*bytesMoved += buf.Len()
		parsed, err := readCmd(r)
		ok = ok && err == nil && writeRep(w, parsed, &rep) == nil && w.Flush() == nil
		*bytesMoved += buf.Len()
		got, err := readRep(r, &cmd)
		buf.Reset()
		r.Reset(&buf)
		return ok && err == nil && got.Status == protocol.StatusOK
	})
}

// dispatchOps hands each op to memcached.DispatchCore as an already
// parsed command: the hybrid server's work without its wire.
func dispatchOps(kv *keyvals, ctx *core.Ctx) rungFn {
	return perOp(func(kind opKind, idx uint64) bool {
		cmd := protocol.Command{Op: protocol.OpGet, Key: kv.key(0, idx)}
		if kind == opSet {
			cmd.Op, cmd.Value, cmd.Flags = protocol.OpSet, kv.value(0, idx), kv.d.flags(idx)
		}
		st := memcached.DispatchCore(ctx, &cmd, "benchmark").Status
		return st == protocol.StatusOK || st == protocol.StatusKeyNotFound
	})
}

// --- the ladder's fixtures -----------------------------------------------------

// ladder holds one of every system a rung needs, loaded with the
// workload's records: a single store (core, gate, hybrid socket), the
// cluster (ClusterSession, proxy socket) and the baseline server.
type ladder struct {
	sp    *spec
	d     *data
	scale int // divides every rung's op count; 1 except in -smoke

	book    *memcached.Bookkeeper
	ctx     *core.Ctx          // no gate
	sess    *memcached.Session // gate on
	hybrid  *memcached.RemoteServer
	hybrid1 *pipeConn

	cluster *memcached.Cluster
	csess   *memcached.ClusterSession
	proxy   *memcached.ClusterServer
	proxy1  *pipeConn
	proxy16 *pipeConn

	base  *server.Server
	base1 *baseConn

	echo net.Conn // client end of a one-byte Unix-socket echo
}

func buildLadder(sp *spec, d *data, scale int) (l *ladder, err error) {
	l = &ladder{sp: sp, d: d, scale: scale}
	defer func() {
		if err != nil {
			l.close()
		}
	}()

	l.book, err = memcached.CreateStore(memcached.Config{
		HeapBytes: uint64(sp.shards) * sp.shardMiB << 20, HashPower: sp.hashPower + 2,
		FixedSize: true, NumItemLocks: 1024})
	if err != nil {
		return l, err
	}
	cp, err := l.book.NewClientProcess(1000)
	if err != nil {
		return l, err
	}
	bare, err := cp.NewSessionNoHodor()
	if err != nil {
		return l, err
	}
	l.ctx = bare.Ctx()
	if l.sess, err = cp.NewSession(); err != nil {
		return l, err
	}
	if l.hybrid, err = l.book.ServeRemote("unix", sockAddr()); err != nil {
		return l, err
	}
	if l.hybrid1, err = dialPipe(l.hybrid.Addr().String(), 1, sp.valueSize, d); err != nil {
		return l, err
	}
	if err = preload(sp, d, func(k, v []byte, fl uint32) error { return l.ctx.Set(k, v, fl, 0) }); err != nil {
		return l, err
	}

	if l.cluster, err = newCluster(sp); err != nil {
		return l, err
	}
	if l.csess, err = openSession(l.cluster, 1000); err != nil {
		return l, err
	}
	if l.proxy, err = l.cluster.ServeRemote("unix", sockAddr()); err != nil {
		return l, err
	}
	if l.proxy1, err = dialPipe(l.proxy.Addr().String(), 1, sp.valueSize, d); err != nil {
		return l, err
	}
	if l.proxy16, err = dialPipe(l.proxy.Addr().String(), 16, sp.valueSize, d); err != nil {
		return l, err
	}
	if err = preload(sp, d, func(k, v []byte, fl uint32) error { return l.csess.Set(k, v, fl, 0) }); err != nil {
		return l, err
	}

	if l.base, err = startBaseline(sp, d); err != nil {
		return l, err
	}
	if l.base1, err = dialBase(l.base.Addr().String(), sp, d); err != nil {
		return l, err
	}

	ln, err := net.Listen("unix", sockAddr())
	if err != nil {
		return l, err
	}
	go func() {
		c, err := ln.Accept()
		ln.Close()
		if err == nil {
			io.Copy(c, c) // echoes until the client end closes
			c.Close()
		}
	}()
	l.echo, err = net.Dial("unix", ln.Addr().String())
	return l, err
}

func (l *ladder) close() {
	for _, c := range []*pipeConn{l.hybrid1, l.proxy1, l.proxy16} {
		if c != nil {
			c.close()
		}
	}
	if l.base1 != nil {
		l.base1.close()
	}
	if l.echo != nil {
		l.echo.Close()
	}
	if l.hybrid != nil {
		l.hybrid.Close()
	}
	if l.proxy != nil {
		l.proxy.Close()
	}
	if l.base != nil {
		l.base.Close()
	}
	if l.cluster != nil {
		l.cluster.Shutdown()
	}
	if l.book != nil {
		l.book.Shutdown()
	}
}

// counters is the part of the stores' own accounting the ladder reads.
type counters struct {
	ops       core.Stats
	crossings uint64
	gateRej   uint64
}

func (c *counters) add(m memcached.Metrics) {
	c.ops.Gets += m.Ops.Gets
	c.ops.Sets += m.Ops.Sets
	c.ops.GetFastpathHits += m.Ops.GetFastpathHits
	c.ops.SeqlockRetries += m.Ops.SeqlockRetries
	c.ops.Evictions += m.Ops.Evictions
	c.ops.Batches += m.Ops.Batches
	c.ops.BatchedOps += m.Ops.BatchedOps
	c.crossings += m.Library.Crossings
	c.gateRej += m.Library.GateRejections
}

func (l *ladder) clusterCounters() (c counters) {
	for _, m := range l.cluster.Metrics().Shards {
		c.add(m)
	}
	return c
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// --- one pass over the ladder ----------------------------------------------------

const (
	blockOps     = 128 // ops per timed block on in-process rungs: clock cost ≤ 1 % of a sub-µs op
	sockBlockOps = 16  // ops per timed block on depth-1 socket rungs
)

// Fixed op counts, so the counters of a pass repeat exactly.

// inprocOps is the op count of an in-process rung.
func (l *ladder) inprocOps() int {
	if l.sp.valueSize > 1024 {
		return 16384 / l.scale
	}
	return 65536 / l.scale
}

// sockOps is the op count of a depth-1 socket rung.
func (l *ladder) sockOps() int { return 8192 / l.scale }

// p99Ops is how many individually stamped ops stand behind each p99.
func (l *ladder) p99Ops() int { return 4096 / l.scale }

// ladderPass replays the workload's stream through every rung once and
// returns the per-layer metrics by name. Ops and failures go to tl, and
// failures names each rung that had any. nth numbers the replays of one
// traced run.
func (l *ladder) ladderPass(t *tracer, seed uint64, z *zipf, nth int, tl *tally, failures *[]string) map[string]float64 {
	sp, d := l.sp, l.d
	root := t.begin(sp.name, 0)
	fresh := func() opSrc { return &streamSrc{st: newStream(sp, z, seed, 0)} }
	kv := newKeyvals(d, 64, 1, sp.valueSize)
	n, sockOps, p99Ops := l.inprocOps(), l.sockOps(), l.p99Ops()
	m := map[string]float64{}
	run := func(name string, src opSrc, total, block int, fn rungFn) pass {
		p := t.replay(name, root, src, total, block, fn)
		tl.Attempted += uint64(p.ops)
		tl.Failed += uint64(p.failed)
		if p.failed > 0 {
			*failures = append(*failures, fmt.Sprintf("rung %s: %d of %d ops failed", name, p.failed, p.ops))
		}
		return p
	}

	// The stream mixes Gets and Sets; the rungs that price them apart
	// replay its first n Gets and first n/4 Sets.
	gets, sets := &sliceSrc{kind: opGet}, &sliceSrc{kind: opSet}
	for src := fresh(); len(gets.idxs) < n || len(sets.idxs) < n/4; {
		if kind, idx := src.next(); kind == opGet && len(gets.idxs) < n {
			gets.idxs = append(gets.idxs, idx)
		} else if kind == opSet && len(sets.idxs) < n/4 {
			sets.idxs = append(sets.idxs, idx)
		}
	}

	// harness: what every rung pays before it reaches a layer
	render := singleOps(&kv, func([]byte) error { return nil }, func(_, _ []byte, _ uint32) error { return nil })
	gen := run("ycsb.gen", fresh(), n, blockOps, render).nsPerOp()
	genGet := run("ycsb.gen.get", gets, n, blockOps, render).nsPerOp()
	genSet := run("ycsb.gen.set", sets, n/4, blockOps, render).nsPerOp()
	genKeys := run("ycsb.gen.keys64", gets, n, blockOps,
		mgetOps(&kv, func(k [][]byte) (int, error) { return len(k), nil })).nsPerOp()
	m["ycsb.gen_ns_per_op"] = gen
	m["ycsb.key_ns"] = genKeys
	m["ycsb.clock_ns"] = run("ycsb.clock", nil, n, blockOps, each(func() bool { return now() != 0 })).nsPerOp()

	// ralloc, through the single store's own allocator
	cache := l.book.Allocator().NewCache()
	mallocFree := func(size uint64) rungFn {
		return each(func() bool {
			off, err := cache.Malloc(size)
			return err == nil && cache.Free(off) == nil
		})
	}
	m["ralloc.malloc_free_128_ns"] = run("ralloc.malloc_free_128", nil, n, blockOps, mallocFree(128)).nsPerOp()
	m["ralloc.malloc_free_5k_ns"] = run("ralloc.malloc_free_5k", nil, n, blockOps, mallocFree(5120)).nsPerOp()
	cache.Flush()
	m["ralloc.live_bytes_per_user_byte"] = ratio(l.book.Allocator().LiveBytes(),
		l.book.Stats().CurrItems*uint64(keyLen+sp.valueSize))

	// core: a bare core.Ctx, no gate
	coreOps := singleOps(&kv,
		func(k []byte) error { _, _, _, err := l.ctx.Get(k); return err },
		func(k, v []byte, fl uint32) error { return l.ctx.Set(k, v, fl, 0) })
	coreP := run("core", fresh(), n, blockOps, coreOps)
	m["core.ns_per_op"] = coreP.nsPerOp() - gen
	m["core.allocs_per_op"] = coreP.allocsPerOp()
	m["core.get_ns"] = run("core.get", gets, n, blockOps, coreOps).nsPerOp() - genGet
	m["core.set_ns"] = run("core.set", sets, n/4, blockOps, coreOps).nsPerOp() - genSet
	m["core.mget64_ns_per_key"] = run("core.mget64", gets, n, blockOps, mgetOps(&kv, func(k [][]byte) (int, error) {
		return len(l.ctx.MGet(k)), nil
	})).nsPerOp() - genKeys

	// hodor + session: the same store behind the gate
	noop := func(*proc.Thread, struct{}) (struct{}, error) { return struct{}{}, nil }
	m["hodor.empty_call_ns"] = run("hodor.empty_call", nil, n, blockOps, each(func() bool {
		_, err := hodor.Call(l.sess.Hodor(), noop, struct{}{})
		return err == nil
	})).nsPerOp()
	sessP := run("session", fresh(), n, blockOps, singleOps(&kv,
		func(k []byte) error { _, _, err := l.sess.Get(k); return err },
		func(k, v []byte, fl uint32) error { return l.sess.Set(k, v, fl, 0) }))
	m["session.ns_per_op"] = sessP.nsPerOp() - gen
	m["session.allocs_per_op"] = sessP.allocsPerOp()
	m["hodor.self_ns_per_op"] = sessP.nsPerOp() - coreP.nsPerOp()
	m["session.mget64_ns_per_key"] = run("session.mget64", gets, n, blockOps, mgetOps(&kv, func(k [][]byte) (int, error) {
		res, err := l.sess.MGet(k)
		return len(res), err
	})).nsPerOp() - genKeys

	// cluster: ClusterSession over the shards
	clOps := singleOps(&kv,
		func(k []byte) error { _, _, err := l.csess.Get(k); return err },
		func(k, v []byte, fl uint32) error { return l.csess.Set(k, v, fl, 0) })
	clP := run("cluster", fresh(), n, blockOps, clOps)
	m["cluster.ns_per_op"] = clP.nsPerOp() - gen
	m["cluster.allocs_per_op"] = clP.allocsPerOp()
	m["cluster.self_ns_per_op"] = clP.nsPerOp() - sessP.nsPerOp()
	m["cluster.mget64_ns_per_key"] = run("cluster.mget64", gets, n, blockOps, mgetOps(&kv, func(k [][]byte) (int, error) {
		res, err := l.csess.MGet(k)
		return len(res), err
	})).nsPerOp() - genKeys
	m["cluster.get_p99_us"] = run("cluster.get.op", gets, p99Ops, 1, clOps).p99us()
	m["cluster.set_p99_us"] = run("cluster.set.op", sets, p99Ops, 1, clOps).p99us()

	// protocol, on an in-memory buffer
	var moved int
	binP := run("protocol.binary", fresh(), n, blockOps, wireOps(&kv, false, &moved))
	m["protocol.binary_ns_per_cmd"] = binP.nsPerOp() - gen
	m["protocol.allocs_per_cmd"] = binP.allocsPerOp()
	m["protocol.bytes_per_cmd"] = float64(moved) / float64(n)
	m["protocol.ascii_ns_per_cmd"] = run("protocol.ascii", fresh(), n, blockOps, wireOps(&kv, true, new(int))).nsPerOp() - gen

	// hybrid: Bookkeeper.ServeRemote
	m["hybrid.dispatch_ns_per_cmd"] = run("hybrid.dispatch", fresh(), n, blockOps, dispatchOps(&kv, l.ctx)).nsPerOp() - gen
	hyP := run("hybrid.rtt", fresh(), sockOps, sockBlockOps, connOps(l.hybrid1, 1, false))
	m["hybrid.rtt_ns_per_op"] = hyP.nsPerOp() - gen
	m["hybrid.self_ns_per_op"] = residual(hyP.nsPerOp(), gen, m["core.ns_per_op"], m["protocol.binary_ns_per_cmd"])
	m["hybrid.allocs_per_op"] = hyP.allocsPerOp()

	// proxy: Cluster.ServeRemote
	pxP := run("proxy.rtt", fresh(), sockOps, sockBlockOps, connOps(l.proxy1, 1, false))
	m["proxy.rtt_ns_per_op"] = pxP.nsPerOp() - gen
	m["proxy.self_ns_per_op"] = pxP.nsPerOp() - hyP.nsPerOp()
	m["proxy.op_p99_us"] = run("proxy.rtt.op", fresh(), p99Ops, 1, connOps(l.proxy1, 1, false)).p99us()
	c0 := l.clusterCounters()
	p16 := run("proxy.pipe16", fresh(), 4*sockOps, 16*sockBlockOps, connOps(l.proxy16, 16, false))
	c1 := l.clusterCounters()
	m["proxy.pipe16_ns_per_op"] = p16.nsPerOp() - gen
	m["proxy.allocs_per_op"] = p16.allocsPerOp()
	m["proxy.mean_batch"] = ratio(c1.ops.BatchedOps-c0.ops.BatchedOps, c1.ops.Batches-c0.ops.Batches)

	// baseline server, and the transport floor under every socket rung
	svP := run("server.rtt", fresh(), sockOps, sockBlockOps, connOps(l.base1, 1, false))
	m["server.rtt_ns_per_op"] = svP.nsPerOp() - gen
	m["server.allocs_per_op"] = svP.allocsPerOp()
	m["server.op_p99_us"] = run("server.rtt.op", fresh(), p99Ops, 1, connOps(l.base1, 1, false)).p99us()
	one := make([]byte, 1)
	m["transport.uds_empty_rtt_ns"] = run("transport.uds_empty_rtt", nil, sockOps, sockBlockOps, each(func() bool {
		if _, err := l.echo.Write(one); err != nil {
			return false
		}
		_, err := io.ReadFull(l.echo, one)
		return err == nil
	})).nsPerOp()

	// The workload's own path: its client, its request shape, full
	// verification; the counters are deltas over exactly this replay. The
	// rungs above replay client 0's stream from its start every time, so
	// on a workload that evicts they run against a cache their own Sets
	// have warmed. The path must not: each pass takes a client of its own
	// and replays a fresh stretch of that stream, first with stamps, then
	// the next stretch without, which gives the tracing overhead.
	c, pathOps, block := l.pathConn()
	own := &streamSrc{st: newStream(sp, z, seed, nth+1)}
	c0 = l.clusterCounters()
	path := run("path."+sp.name, own, pathOps, block, connOps(c, sp.depth, true))
	c1 = l.clusterCounters()
	t0 := now()
	done, failed := connOps(c, sp.depth, true)(own, pathOps)
	untimed := float64(now()-t0) / float64(done)
	tl.Attempted += uint64(done)
	tl.Failed += uint64(failed)
	ops := uint64(path.ops)
	gotGets, gotSets := c1.ops.Gets-c0.ops.Gets, c1.ops.Sets-c0.ops.Sets
	m["path.ns_per_op"] = path.nsPerOp()
	m["path.untimed_ns_per_op"] = untimed
	m["trace_overhead_ratio"] = path.meanNsPerOp() / untimed
	m["hodor.crossings_per_op"] = ratio(c1.crossings-c0.crossings, ops)
	m["hodor.gate_rejections_per_op"] = ratio(c1.gateRej-c0.gateRej, ops)
	m["core.fastpath_ratio"] = ratio(c1.ops.GetFastpathHits-c0.ops.GetFastpathHits, gotGets)
	m["core.seqlock_retries_per_get"] = ratio(c1.ops.SeqlockRetries-c0.ops.SeqlockRetries, gotGets)
	m["core.evictions_per_set"] = ratio(c1.ops.Evictions-c0.ops.Evictions, gotSets)
	m["cluster.mean_batch"] = ratio(c1.ops.BatchedOps-c0.ops.BatchedOps, c1.ops.Batches-c0.ops.Batches)
	m["go.gc_cycles_per_mop"] = float64(path.gcCycles) * 1e6 / float64(ops)
	m["go.gc_pause_us_per_mop"] = float64(path.gcPauseNs) * 1e3 / float64(ops)

	t.end(root, 0)
	return m
}

// p99us is the 99th percentile of a pass stamped one op to a block.
func (p pass) p99us() float64 {
	s := slices.Clone(p.blockNs)
	slices.Sort(s)
	return quantile(s, 0.99) / 1e3
}

// pathConn returns the workload's own client over the ladder's fixtures,
// the op count of its path replay and the ops per timed block.
func (l *ladder) pathConn() (c conn, ops, block int) {
	switch l.sp.path {
	case pathProxy:
		return l.proxy16, 4 * l.sockOps(), 16 * sockBlockOps
	case pathBaseline:
		return l.base1, l.sockOps(), sockBlockOps
	}
	return newLibConn(l.csess, l.sp, l.d), l.inprocOps(), blockOps
}

// ladderRow is one layer's self time on the workload's own path.
type ladderRow struct {
	Layer  string  `json:"layer"`
	SelfNs float64 `json:"self_ns_per_op"`
}

// selfTimes is the outside-in breakdown of the workload's own path: each
// row is a layer's rung minus the rungs below it. The rows are built from
// separately replayed rungs, so their sum landing near the path's untimed
// cost is a check on the method, not an identity.
func selfTimes(sp *spec, m map[string]float64) []ladderRow {
	gen, core, proto := m["ycsb.gen_ns_per_op"], m["core.ns_per_op"], m["protocol.binary_ns_per_cmd"]
	switch {
	case sp.path == pathProxy:
		return []ladderRow{{"harness", gen}, {"core", core}, {"protocol", proto},
			{"proxy+transport", residual(m["proxy.pipe16_ns_per_op"], core, proto)}}
	case sp.path == pathBaseline:
		uds := m["transport.uds_empty_rtt_ns"]
		return []ladderRow{{"harness", gen}, {"protocol", proto}, {"transport", uds},
			{"server", residual(m["server.rtt_ns_per_op"], proto, uds)}}
	case sp.batch():
		coreK, sessK := m["core.mget64_ns_per_key"], m["session.mget64_ns_per_key"]
		return []ladderRow{{"harness", m["ycsb.key_ns"]}, {"core", coreK},
			{"hodor+session", residual(sessK, coreK)},
			{"cluster", residual(m["cluster.mget64_ns_per_key"], sessK)}}
	}
	return []ladderRow{{"harness", gen}, {"core", core},
		{"hodor+session", m["hodor.self_ns_per_op"]}, {"cluster", m["cluster.self_ns_per_op"]}}
}

// residual is a rung's self time: the rung minus everything below it.
func residual(rung float64, below ...float64) float64 {
	for _, b := range below {
		rung -= b
	}
	return rung
}

// traced is what one workload's traced run produced.
type traced struct {
	perLayer map[string]float64 // median over passes
	spans    []span             // of the last pass
	passes   int
	total    tally
	failures []string // one line per rung and pass that saw a failed op
}

// traceWorkload builds the ladder and replays it until budget is spent
// (at least once), then reports each per-layer metric's median over the
// passes. scale divides the op counts.
func traceWorkload(sp *spec, seed uint64, budget time.Duration, scale int) (*traced, error) {
	l, err := buildLadder(sp, newData(seed), scale)
	if err != nil {
		return nil, fmt.Errorf("%s: ladder set-up: %w", sp.name, err)
	}
	defer l.close()
	z := newZipf(sp.records, zipfTheta)
	var t tracer
	tr := &traced{perLayer: map[string]float64{}}
	byName := map[string][]float64{}
	for start := time.Now(); ; {
		t.spans = t.spans[:0]
		runtime.GC()
		for k, v := range l.ladderPass(&t, seed, z, tr.passes, &tr.total, &tr.failures) {
			byName[k] = append(byName[k], v)
		}
		tr.passes++
		if spent := time.Since(start); spent+spent/time.Duration(tr.passes) > budget {
			break
		}
	}
	for k, v := range byName {
		tr.perLayer[k] = median(v)
	}
	tr.spans = t.spans
	return tr, nil
}
