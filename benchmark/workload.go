package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync/atomic"

	"plibmc/internal/client"
	"plibmc/internal/core"
	"plibmc/internal/protocol"
	"plibmc/internal/server"
	"plibmc/memcached"
)

type pathKind int

const (
	pathLib      pathKind = iota // in-process ClusterSession
	pathProxy                    // UDS → Cluster.ServeRemote, binary, pipelined
	pathBaseline                 // UDS → internal/server, binary, depth 1
)

// spec is one named workload. Everything a run depends on is here or in
// the seed; nothing is tuned at run time.
type spec struct {
	name, why string
	path      pathKind
	shards    int
	shardMiB  uint64 // heap per shard
	hashPower uint
	records   uint64
	valueSize int
	readFrac  float64 // share of requests that read
	getKeys   int     // keys per read request (1 = Get, more = MGet)
	setKeys   int     // keys per write request (1 = Set, more = ExecBatch)
	depth     int     // requests written before the first reply is read
	fits      bool    // working set fits the cache: every Get must hit
}

// batch reports whether the workload drives the MGet/ExecBatch plane.
func (sp *spec) batch() bool { return sp.getKeys > 1 }

var specs = []*spec{
	{
		name: "lib_read_128",
		why:  "The paper's headline path: tiny work per op, so the hodor gate, cluster routing and core's seqlock read path are most of the cost; no socket or parser runs.",
		path: pathLib, shards: 4, shardMiB: 64, hashPower: 15, records: 100_000, valueSize: 128,
		readFrac: 0.95, getKeys: 1, setKeys: 1, depth: 1, fits: true,
	},
	{
		name: "lib_write_5k_evict",
		why:  "Same API the other way: 5 KB values at 50/50 over 3x the heap, so ralloc, shm copies, checksums, LRU and eviction dominate and the gate is diluted to noise.",
		path: pathLib, shards: 4, shardMiB: 16, hashPower: 15, records: 40_000, valueSize: 5120,
		readFrac: 0.50, getKeys: 1, setKeys: 1, depth: 1,
	},
	{
		name: "lib_mget64_128",
		why:  "The batch plane: 64-key MGet and 16-Set ExecBatch cut crossings to ~4/64 per key, leaving per-key core work and result assembly; bypasses the gate cost.",
		path: pathLib, shards: 4, shardMiB: 64, hashPower: 15, records: 100_000, valueSize: 128,
		readFrac: 0.95, getKeys: 64, setKeys: 16, depth: 1, fits: true,
	},
	{
		name: "proxy_pipe16_128",
		why:  "Binary protocol over UDS to Cluster.ServeRemote at depth 16: syscalls amortised, so parse, the proxy's drain/route loop, copies and reply flushing are the cost; no gate is crossed.",
		path: pathProxy, shards: 4, shardMiB: 64, hashPower: 15, records: 100_000, valueSize: 128,
		readFrac: 0.95, getKeys: 1, setKeys: 1, depth: 16, fits: true,
	},
	{
		name: "baseline_rtt_128",
		why:  "The paper's comparison system and the transport-bound control: depth-1 UDS round trips to the original memcached, ~8 us/op of which ~1 us is work; wire-loop changes predict no move.",
		path: pathBaseline, shards: 4, shardMiB: 64, hashPower: 15, records: 100_000, valueSize: 128,
		readFrac: 0.95, getKeys: 1, setKeys: 1, depth: 1, fits: true,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// tally counts what the correctness gate saw. Ops are counted in keys.
type tally struct {
	Attempted uint64 `json:"attempted"`
	Gets      uint64 `json:"gets"`
	Hits      uint64 `json:"hits"` // Gets whose value and flags matched the generator's
	Failed    uint64 `json:"failed"`
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Gets += o.Gets
	t.Hits += o.Hits
	t.Failed += o.Failed
}

// conn is one closed-loop client: a library session or a socket.
type conn interface {
	// exec issues one window of requests and waits for every reply.
	// With lat non-nil it stamps each request — lat[i] is the time from
	// issue (for a pipelined window, from the flush) to request i's
	// decoded reply — and returns the last stamp; key and value rendering
	// stay outside the stamped interval.
	exec(reqs []request, lat []int64) int64
	// check compares the replies of the last exec with what the generator
	// says they must be: a wrong value, an error other than a miss, a
	// refused call or a misaligned batch result is a failure; a miss only
	// lowers the hit count.
	check(reqs []request, t *tally)
	close()
}

// verifier rebuilds the expected payload of a record for comparison.
type verifier struct {
	d    *data
	want []byte
}

func (v *verifier) ok(idx uint64, val []byte, flags uint32) bool {
	v.d.value(v.want, idx)
	return flags == v.d.flags(idx) && bytes.Equal(val, v.want)
}

// keyvals holds a client's reusable key and value buffers.
type keyvals struct {
	d    *data
	keys [][]byte
	vals [][]byte
}

func newKeyvals(d *data, nkeys, nvals, valueSize int) keyvals {
	kv := keyvals{d: d, keys: make([][]byte, nkeys), vals: make([][]byte, nvals)}
	for i := range kv.keys {
		kv.keys[i] = make([]byte, 0, keyLen)
	}
	for i := range kv.vals {
		kv.vals[i] = make([]byte, valueSize)
	}
	return kv
}

func (kv *keyvals) key(i int, idx uint64) []byte {
	kv.keys[i] = kv.d.key(kv.keys[i][:0], idx)
	return kv.keys[i]
}

func (kv *keyvals) value(i int, idx uint64) []byte {
	kv.d.value(kv.vals[i], idx)
	return kv.vals[i]
}

// --- in-process ClusterSession ---------------------------------------------

type libConn struct {
	s  *memcached.ClusterSession
	sp *spec
	kv keyvals
	v  verifier

	ops   []memcached.BatchOp
	val   []byte
	flags uint32
	mres  []core.GetResult
	bres  []memcached.BatchResult
	err   error
}

func newLibConn(s *memcached.ClusterSession, sp *spec, d *data) *libConn {
	return &libConn{
		s: s, sp: sp,
		kv:  newKeyvals(d, max(sp.getKeys, sp.setKeys), sp.setKeys, sp.valueSize),
		v:   verifier{d, make([]byte, sp.valueSize)},
		ops: make([]memcached.BatchOp, sp.setKeys),
	}
}

func (c *libConn) exec(reqs []request, lat []int64) int64 {
	r := &reqs[0]
	for i, idx := range r.idxs {
		c.kv.key(i, idx)
		if r.kind == opSet {
			c.ops[i] = memcached.BatchOp{Code: memcached.BatchSet, Key: c.kv.keys[i],
				Value: c.kv.value(i, idx), Flags: c.kv.d.flags(idx)}
		}
	}
	var t0 int64
	if lat != nil {
		t0 = now()
	}
	switch {
	case c.sp.batch() && r.kind == opGet:
		c.mres, c.err = c.s.MGet(c.kv.keys[:len(r.idxs)])
	case c.sp.batch():
		c.bres, c.err = c.s.ExecBatch(c.ops)
	case r.kind == opGet:
		c.val, c.flags, c.err = c.s.Get(c.kv.keys[0])
	default:
		c.err = c.s.Set(c.kv.keys[0], c.ops[0].Value, c.ops[0].Flags, 0)
	}
	if lat == nil {
		return 0
	}
	t1 := now()
	lat[0] = t1 - t0
	return t1
}

func (c *libConn) check(reqs []request, t *tally) {
	r := &reqs[0]
	n := uint64(len(r.idxs))
	t.Attempted += n
	if r.kind == opGet {
		t.Gets += n
	}
	switch {
	case c.sp.batch() && r.kind == opGet:
		if c.err != nil || len(c.mres) != len(r.idxs) {
			t.Failed += n
			return
		}
		for i, res := range c.mres {
			switch {
			case !res.Found:
			case c.v.ok(r.idxs[i], res.Value, res.Flags):
				t.Hits++
			default:
				t.Failed++
			}
		}
	case c.sp.batch():
		if c.err != nil || len(c.bres) != len(r.idxs) {
			t.Failed += n
			return
		}
		for _, res := range c.bres {
			if res.Err != nil {
				t.Failed++
			}
		}
	case r.kind == opGet:
		switch {
		case errors.Is(c.err, memcached.ErrNotFound):
		case c.err == nil && c.v.ok(r.idxs[0], c.val, c.flags):
			t.Hits++
		default:
			t.Failed++
		}
	default:
		if c.err != nil {
			t.Failed++
		}
	}
}

func (c *libConn) close() { c.s.Close() }

// --- binary protocol over a Unix socket, pipelined --------------------------

type pipeConn struct {
	nc   net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	kv   keyvals
	v    verifier
	cmd  protocol.Command
	reps []*protocol.Reply // nil where the read failed
}

func dialPipe(addr string, depth, valueSize int, d *data) (*pipeConn, error) {
	nc, err := net.Dial("unix", addr)
	if err != nil {
		return nil, fmt.Errorf("dial proxy: %w", err)
	}
	return &pipeConn{
		nc: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriterSize(nc, 64<<10),
		kv:   newKeyvals(d, depth, depth, valueSize),
		v:    verifier{d, make([]byte, valueSize)},
		reps: make([]*protocol.Reply, depth),
	}, nil
}

func (c *pipeConn) exec(reqs []request, lat []int64) int64 {
	clear(c.reps)
	for i := range reqs {
		idx := reqs[i].idxs[0]
		c.cmd = protocol.Command{Op: protocol.OpGet, Key: c.kv.key(i, idx), Opaque: uint32(i)}
		if reqs[i].kind == opSet {
			c.cmd.Op, c.cmd.Value, c.cmd.Flags = protocol.OpSet, c.kv.value(i, idx), c.kv.d.flags(idx)
		}
		if protocol.WriteBinaryCommand(c.w, &c.cmd) != nil {
			return 0 // every reply stays nil and check counts the window failed
		}
	}
	var t0, t1 int64
	if lat != nil {
		t0 = now()
	}
	if c.w.Flush() != nil {
		return 0
	}
	for i := range reqs {
		rep, _, err := protocol.ReadBinaryReply(c.r)
		if err != nil {
			break
		}
		c.reps[i] = rep
		if lat != nil {
			t1 = now()
			lat[i] = t1 - t0
		}
	}
	return t1
}

func (c *pipeConn) check(reqs []request, t *tally) {
	for i := range reqs {
		t.Attempted++
		get := reqs[i].kind == opGet
		if get {
			t.Gets++
		}
		rep := c.reps[i]
		switch {
		case rep == nil || rep.Opaque != uint32(i):
			t.Failed++
		case get && rep.Status == protocol.StatusKeyNotFound:
		case rep.Status != protocol.StatusOK:
			t.Failed++
		case !get:
		case c.v.ok(reqs[i].idxs[0], rep.Value, rep.Flags):
			t.Hits++
		default:
			t.Failed++
		}
	}
}

func (c *pipeConn) close() { c.nc.Close() }

// --- internal/client against the baseline server, depth 1 -------------------

type baseConn struct {
	c     *client.Client
	kv    keyvals
	v     verifier
	val   []byte
	flags uint32
	err   error
}

// missText is how internal/client reports a miss (it renders statuses as
// text and exports no sentinel).
var missText = "memcached: " + protocol.StatusKeyNotFound.String()

func dialBase(addr string, sp *spec, d *data) (*baseConn, error) {
	c, err := client.Dial("unix", addr, client.Binary)
	if err != nil {
		return nil, fmt.Errorf("dial baseline: %w", err)
	}
	return &baseConn{c: c, kv: newKeyvals(d, 1, 1, sp.valueSize), v: verifier{d, make([]byte, sp.valueSize)}}, nil
}

func (c *baseConn) exec(reqs []request, lat []int64) int64 {
	r := &reqs[0]
	idx := r.idxs[0]
	key := c.kv.key(0, idx)
	var val []byte
	if r.kind == opSet {
		val = c.kv.value(0, idx)
	}
	var t0 int64
	if lat != nil {
		t0 = now()
	}
	if r.kind == opGet {
		c.val, c.flags, _, c.err = c.c.Get(key)
	} else {
		c.err = c.c.Set(key, val, c.kv.d.flags(idx), 0)
	}
	if lat == nil {
		return 0
	}
	t1 := now()
	lat[0] = t1 - t0
	return t1
}

func (c *baseConn) check(reqs []request, t *tally) {
	r := &reqs[0]
	t.Attempted++
	if r.kind == opSet {
		if c.err != nil {
			t.Failed++
		}
		return
	}
	t.Gets++
	switch {
	case c.err != nil && c.err.Error() == missText:
	case c.err == nil && c.v.ok(r.idxs[0], c.val, c.flags):
		t.Hits++
	default:
		t.Failed++
	}
}

func (c *baseConn) close() { c.c.Close() }

// --- fixtures ----------------------------------------------------------------

// fixture is one workload's running system with its clients connected and
// its records loaded.
type fixture struct {
	cluster *memcached.Cluster
	proxy   *memcached.ClusterServer
	base    *server.Server
	conns   []conn
}

var sockSeq atomic.Uint64

// sockAddr names a fresh Unix socket in Linux's abstract namespace, so a
// run leaves no file behind and the checkout's path length does not matter.
func sockAddr() string {
	return fmt.Sprintf("@plibmc-benchmark-%d-%d", os.Getpid(), sockSeq.Add(1))
}

func newCluster(sp *spec) (*memcached.Cluster, error) {
	return memcached.CreateCluster(memcached.ClusterConfig{
		Shards: sp.shards,
		Store: memcached.Config{HeapBytes: sp.shardMiB << 20, HashPower: sp.hashPower,
			FixedSize: true, NumItemLocks: 1024},
	})
}

// openSession attaches a new client process to the cluster and opens its
// one routed session.
func openSession(c *memcached.Cluster, uid int) (*memcached.ClusterSession, error) {
	cc, err := c.NewClientProcess(uid)
	if err != nil {
		return nil, err
	}
	return cc.NewSession()
}

// startBaseline starts the original-memcached server, one thread per CPU,
// and loads the records straight into its store (depth-1 Sets over the
// socket would only add round trips to the set-up time). The store is
// sized so that it never evicts: internal/server's Set deadlocks on
// itself when it must (evictFromClass locks the victim's stripe while
// storeItem still holds one), which this package reports and leaves alone.
func startBaseline(sp *spec, d *data) (*server.Server, error) {
	fits := 2 * int64(sp.records) * int64(keyLen+sp.valueSize+64)
	srv, err := server.New(server.Config{Network: "unix", Addr: sockAddr(),
		Threads: runtime.NumCPU(), MemLimit: max(fits, 256<<20), HashPower: sp.hashPower + 2})
	if err != nil {
		return nil, err
	}
	go srv.Serve()
	err = preload(sp, d, func(k, v []byte, fl uint32) error {
		if st := srv.Store().Set(k, v, fl, 0); st != protocol.StatusOK {
			return fmt.Errorf("baseline store: %v", st)
		}
		return nil
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// build starts the workload's system, connects its clients and then loads
// every record. Sessions are opened before the load because NewSession
// on a full heap fails (the tenant arena does not evict).
func build(sp *spec, d *data, clients int) (f *fixture, err error) {
	f = &fixture{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if sp.path == pathBaseline {
		if f.base, err = startBaseline(sp, d); err != nil {
			return f, err
		}
		for range clients {
			c, err := dialBase(f.base.Addr().String(), sp, d)
			if err != nil {
				return f, err
			}
			f.conns = append(f.conns, c)
		}
		return f, nil
	}

	if f.cluster, err = newCluster(sp); err != nil {
		return f, err
	}
	var loader *memcached.ClusterSession
	if sp.path == pathProxy {
		if f.proxy, err = f.cluster.ServeRemote("unix", sockAddr()); err != nil {
			return f, err
		}
		if loader, err = openSession(f.cluster, 999); err != nil {
			return f, err
		}
		defer loader.Close()
	}
	for i := range clients {
		if sp.path == pathProxy {
			c, err := dialPipe(f.proxy.Addr().String(), sp.depth, sp.valueSize, d)
			if err != nil {
				return f, err
			}
			f.conns = append(f.conns, c)
			continue
		}
		s, err := openSession(f.cluster, 1000+i)
		if err != nil {
			return f, err
		}
		f.conns = append(f.conns, newLibConn(s, sp, d))
		if loader == nil {
			loader = s
		}
	}
	return f, preload(sp, d, func(k, v []byte, fl uint32) error { return loader.Set(k, v, fl, 0) })
}

// preload stores records 0..n-1 in order through set.
func preload(sp *spec, d *data, set func(key, val []byte, flags uint32) error) error {
	kv := newKeyvals(d, 1, 1, sp.valueSize)
	for idx := uint64(0); idx < sp.records; idx++ {
		if err := set(kv.key(0, idx), kv.value(0, idx), d.flags(idx)); err != nil {
			return fmt.Errorf("preload record %d: %w", idx, err)
		}
	}
	return nil
}

// close disconnects the clients first: both servers' Close waits for
// their connections to end.
func (f *fixture) close() {
	for _, c := range f.conns {
		c.close()
	}
	if f.proxy != nil {
		f.proxy.Close()
	}
	if f.base != nil {
		f.base.Close()
	}
	if f.cluster != nil {
		f.cluster.Shutdown()
	}
}
