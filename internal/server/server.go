package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"plibmc/internal/protocol"
)

// Server is the socket front end: an accept loop plus a fixed pool of
// server threads. Connection readers parse requests and hand them to the
// pool; the pool executes against the store and writes replies. The pool
// size is the paper's "server threads" knob (Figures 6–9 compare 4 and 8):
// when every server thread is busy, parsed requests queue, which is exactly
// the bottleneck the paper observes once clients outnumber server capacity.
type Server struct {
	store       *Store
	ln          net.Listener
	threads     int
	readTimeout time.Duration

	reqCh   chan request
	wg      sync.WaitGroup
	connWG  sync.WaitGroup
	closed  atomic.Bool
	version string
}

// request is one connection's turn on the server-thread pool: the whole
// run of commands the client had pipelined, handed over together so a
// pipeline costs one queue round trip instead of one per command.
type request struct {
	w      *bufio.Writer
	binary bool
	cmds   []protocol.Command
	done   chan struct{}
}

// Config configures a server.
type Config struct {
	// Network and Addr as for net.Listen; "unix" + socket path reproduces
	// the paper's Unix-domain-socket setup.
	Network string
	Addr    string
	// Threads is the number of server threads (the 4/8 knob).
	Threads int
	// MemLimit is the store's -m in bytes.
	MemLimit int64
	// HashPower is log2 of the bucket count.
	HashPower uint
	// ReadTimeout, when positive, bounds how long a connection may sit
	// idle between commands before the server drops it — the socket-side
	// twin of the library gate's live-call budget (ISSUE 7): a client
	// holding a connection open without speaking cannot hoard a reader
	// goroutine forever. Zero keeps the historical block-forever reads.
	ReadTimeout time.Duration
}

// New creates a server and starts listening, but serves no connections
// until Serve is called.
func New(cfg Config) (*Server, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.MemLimit <= 0 {
		cfg.MemLimit = 64 << 20
	}
	if cfg.HashPower == 0 {
		cfg.HashPower = 16
	}
	ln, err := net.Listen(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return &Server{
		store:       NewStore(cfg.MemLimit, cfg.HashPower),
		ln:          ln,
		threads:     cfg.Threads,
		readTimeout: cfg.ReadTimeout,
		reqCh:       make(chan request, 1024),
		version:     "1.6.0-baseline",
	}, nil
}

// Store exposes the underlying store (for preloading in benchmarks).
func (s *Server) Store() *Store { return s.store }

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve runs the accept loop and the server-thread pool until Close.
func (s *Server) Serve() {
	for i := 0; i < s.threads; i++ {
		s.wg.Add(1)
		go s.serverThread()
	}
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connWG.Add(1)
		go s.handleConn(c)
	}
}

// Close stops the listener and waits for server threads to drain.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.ln.Close()
	s.connWG.Wait()
	close(s.reqCh)
	s.wg.Wait()
}

// handleConn runs the shared read loop for one client connection; each
// pipelined run of commands crosses the server-thread pool once. The
// commands borrow the connection's read window, which the wait on done
// keeps in place until the server thread is through with them (the store
// copies what it keeps).
func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	defer c.Close()
	done := make(chan struct{})
	protocol.ServeConn(c, s.readTimeout, func(w *bufio.Writer, binary bool, cmds []protocol.Command) {
		// When every server thread is busy this send queues (and, past
		// the channel capacity, blocks) — the server-side backpressure
		// whose effect the paper measures in Figures 6–9.
		s.reqCh <- request{w: w, binary: binary, cmds: cmds, done: done}
		<-done
	})
}

// serverThread executes queued requests: the work one memcached worker
// thread does after its select() returns.
func (s *Server) serverThread() {
	defer s.wg.Done()
	for req := range s.reqCh {
		for i := range req.cmds {
			s.execute(req.w, req.binary, &req.cmds[i])
		}
		req.done <- struct{}{}
	}
}

func (s *Server) execute(w *bufio.Writer, binary bool, cmd *protocol.Command) {
	if !binary && cmd.Op == protocol.OpGet && len(cmd.Keys) > 0 {
		// ASCII multi-get: VALUE blocks then one END. This path bypasses
		// Dispatch, so it feeds the latency histograms itself, per key.
		for i := 0; i <= len(cmd.Keys); i++ {
			start := time.Now()
			v, flags, cas, ok := s.store.Get(cmd.KeyAt(i))
			s.store.RecordLatency(LatGet, time.Since(start))
			if ok {
				protocol.WriteASCIIValue(w, cmd.KeyAt(i), flags, v, cas)
			}
		}
		w.WriteString("END\r\n")
		return
	}
	rep := Dispatch(s.store, cmd, s.version)
	if binary {
		protocol.WriteBinaryReply(w, cmd, rep)
	} else {
		protocol.WriteASCIIReply(w, cmd, rep)
	}
}

// latClassOf maps a protocol op to a latency class, or -1 for ops that
// are not timed (stats, version, noop, flush).
func latClassOf(op protocol.Op) int {
	switch op {
	case protocol.OpGet, protocol.OpGAT:
		return LatGet
	case protocol.OpSet, protocol.OpAdd, protocol.OpReplace, protocol.OpCAS,
		protocol.OpAppend, protocol.OpPrepend:
		return LatSet
	case protocol.OpDelete:
		return LatDelete
	case protocol.OpTouch:
		return LatTouch
	case protocol.OpIncr, protocol.OpDecr:
		return LatIncr
	}
	return -1
}

// Dispatch executes one protocol command against a baseline store. It is
// exported so the hybrid daemon can reuse it.
func Dispatch(st *Store, cmd *protocol.Command, version string) *protocol.Reply {
	if class := latClassOf(cmd.Op); class >= 0 {
		start := time.Now()
		defer func() { st.RecordLatency(class, time.Since(start)) }()
	}
	rep := &protocol.Reply{Status: protocol.StatusOK, Opaque: cmd.Opaque}
	switch cmd.Op {
	case protocol.OpGet:
		v, flags, cas, ok := st.Get(cmd.Key)
		if !ok {
			rep.Status = protocol.StatusKeyNotFound
		} else {
			rep.Value, rep.Flags, rep.CAS = v, flags, cas
		}
	case protocol.OpSet:
		rep.Status = st.Set(cmd.Key, cmd.Value, cmd.Flags, cmd.Exptime)
	case protocol.OpAdd:
		rep.Status = st.Add(cmd.Key, cmd.Value, cmd.Flags, cmd.Exptime)
	case protocol.OpReplace:
		rep.Status = st.Replace(cmd.Key, cmd.Value, cmd.Flags, cmd.Exptime)
	case protocol.OpCAS:
		rep.Status = st.CAS(cmd.Key, cmd.Value, cmd.Flags, cmd.Exptime, cmd.CAS)
	case protocol.OpAppend:
		rep.Status = st.Append(cmd.Key, cmd.Value)
	case protocol.OpPrepend:
		rep.Status = st.Prepend(cmd.Key, cmd.Value)
	case protocol.OpDelete:
		rep.Status = st.Delete(cmd.Key)
	case protocol.OpIncr:
		rep.Numeric, rep.Status = st.IncrDecr(cmd.Key, cmd.Delta, false)
	case protocol.OpDecr:
		rep.Numeric, rep.Status = st.IncrDecr(cmd.Key, cmd.Delta, true)
	case protocol.OpTouch:
		rep.Status = st.Touch(cmd.Key, cmd.Exptime)
	case protocol.OpGAT:
		v, flags, cas, ok := st.GetAndTouch(cmd.Key, cmd.Exptime)
		if !ok {
			rep.Status = protocol.StatusKeyNotFound
		} else {
			rep.Value, rep.Flags, rep.CAS = v, flags, cas
		}
	case protocol.OpFlushAll:
		if cmd.Exptime != 0 {
			rep.Status = protocol.StatusInvalidArgs
			break
		}
		st.FlushAll()
	case protocol.OpStats:
		switch cmd.StatsArg {
		case "slabs":
			// Per-class slab usage, as real memcached's "stats slabs".
			for _, cs := range st.SlabStats() {
				prefix := strconv.Itoa(cs.Class)
				rep.Stats = append(rep.Stats,
					[2]string{prefix + ":chunk_size", strconv.Itoa(cs.ChunkSize)},
					[2]string{prefix + ":total_pages", strconv.Itoa(cs.Pages)},
					[2]string{prefix + ":used_chunks", strconv.Itoa(cs.Used)},
					[2]string{prefix + ":free_chunks", strconv.Itoa(cs.Free)},
				)
			}
		case "items":
			for _, cs := range st.SlabStats() {
				prefix := "items:" + strconv.Itoa(cs.Class)
				rep.Stats = append(rep.Stats,
					[2]string{prefix + ":number", strconv.Itoa(cs.Used)},
				)
			}
		case "latency":
			// Per-op service-time distribution, microseconds.
			lat := st.LatencySnapshot()
			for class := range lat {
				h := &lat[class]
				prefix := LatClassNames[class]
				rep.Stats = append(rep.Stats,
					[2]string{prefix + ":count", strconv.FormatUint(h.Count(), 10)},
					[2]string{prefix + ":p50_us", strconv.FormatInt(h.Percentile(50).Microseconds(), 10)},
					[2]string{prefix + ":p99_us", strconv.FormatInt(h.Percentile(99).Microseconds(), 10)},
					[2]string{prefix + ":max_us", strconv.FormatInt(h.Max().Microseconds(), 10)},
				)
			}
		default:
			snap := st.Snapshot()
			rep.Stats = [][2]string{
				{"cmd_get", strconv.FormatUint(snap.Gets, 10)},
				{"get_hits", strconv.FormatUint(snap.GetHits, 10)},
				{"get_misses", strconv.FormatUint(snap.GetMisses, 10)},
				{"cmd_set", strconv.FormatUint(snap.Sets, 10)},
				{"cmd_delete", strconv.FormatUint(snap.Deletes, 10)},
				{"cmd_touch", strconv.FormatUint(snap.Touches, 10)},
				{"touch_hits", strconv.FormatUint(snap.TouchHits, 10)},
				{"touch_misses", strconv.FormatUint(snap.TouchMisses, 10)},
				{"curr_items", strconv.FormatUint(snap.CurrItems, 10)},
				{"bytes", strconv.FormatUint(snap.Bytes, 10)},
				{"evictions", strconv.FormatUint(snap.Evictions, 10)},
				{"expired", strconv.FormatUint(snap.Expired, 10)},
			}
		}
	case protocol.OpVersion:
		rep.Version = version
	case protocol.OpNoop:
		// nothing
	default:
		rep.Status = protocol.StatusUnknownCommand
	}
	return rep
}
