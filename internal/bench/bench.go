// Package bench is the harness that regenerates the paper's evaluation
// (§4): per-operation latency (Figure 5), throughput-vs-threads curves for
// the four YCSB workloads (Figures 6–9), and the empty-call microbenchmarks
// of §2. It builds the three compared systems — original memcached over
// Unix-domain sockets with a fixed number of server threads, the protected
// library with Hodor trampolines, and the protected library without
// protection — behind one per-thread interface so the measurement loops
// are identical.
package bench

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"plibmc/internal/client"
	"plibmc/internal/core"
	"plibmc/internal/histogram"
	"plibmc/internal/hodor"
	"plibmc/internal/server"
	"plibmc/internal/ycsb"
	"plibmc/memcached"
)

// Kind selects one of the compared systems.
type Kind int

// The systems of Figures 5–9.
const (
	Baseline Kind = iota // original memcached over Unix-domain sockets
	PlibHodor
	PlibNoHodor
)

func (k Kind) String() string {
	switch k {
	case Baseline:
		return "memcached"
	case PlibHodor:
		return "plib+hodor"
	case PlibNoHodor:
		return "plib-nohodor"
	}
	return "unknown"
}

// ThreadKV is one benchmark thread's handle on a system under test.
type ThreadKV interface {
	Get(key []byte) error
	Set(key, value []byte) error
	Delete(key []byte) error
	Incr(key []byte, delta uint64) error
	Close()
}

// Fixture is a running system under test.
type Fixture struct {
	Kind Kind
	// NewThread creates a per-thread handle (a socket connection or a
	// library session).
	NewThread func() (ThreadKV, error)
	// CoreStats reads the store's scattered counters — nil for the socket
	// baseline, whose stats live behind the protocol. The harness uses it
	// to report how many reads took the lock-free seqlock path.
	CoreStats func() core.Stats
	// LibMetrics reads the trampoline accounting — nil for the socket
	// baseline, all-zero for plib without Hodor (no gate, no crossings).
	// The harness uses it to report crossings per operation.
	LibMetrics func() hodor.Metrics
	// Close tears the system down.
	Close func()
}

// Options sizes a fixture.
type Options struct {
	// ServerThreads is the baseline's worker count (4 or 8 in the paper).
	ServerThreads int
	// HeapBytes for the plib store / MemLimit for the baseline.
	HeapBytes uint64
	// HashPower of the store's table (fixed size, as the paper ran).
	HashPower uint
	// TempDir hosts the Unix socket.
	TempDir string
}

func (o *Options) fill() {
	if o.ServerThreads == 0 {
		o.ServerThreads = 4
	}
	if o.HeapBytes == 0 {
		o.HeapBytes = 256 << 20
	}
	if o.HashPower == 0 {
		o.HashPower = 15
	}
	if o.TempDir == "" {
		o.TempDir = "/tmp"
	}
}

// NewFixture builds and starts a system under test.
func NewFixture(kind Kind, opts Options) (*Fixture, error) {
	opts.fill()
	switch kind {
	case Baseline:
		sock := filepath.Join(opts.TempDir, fmt.Sprintf("mc-bench-%d.sock", time.Now().UnixNano()))
		srv, err := server.New(server.Config{
			Network: "unix", Addr: sock, Threads: opts.ServerThreads,
			MemLimit: int64(opts.HeapBytes), HashPower: opts.HashPower,
		})
		if err != nil {
			return nil, err
		}
		go srv.Serve()
		return &Fixture{
			Kind: kind,
			NewThread: func() (ThreadKV, error) {
				c, err := client.Dial("unix", sock, client.Binary)
				if err != nil {
					return nil, err
				}
				return &kvThread{memcached.NewSocketSession(c), func() { c.Close() }}, nil
			},
			Close: srv.Close,
		}, nil
	case PlibHodor, PlibNoHodor:
		b, err := memcached.CreateStore(memcached.Config{
			HeapBytes: opts.HeapBytes, HashPower: opts.HashPower,
			FixedSize: true, NumItemLocks: 1024,
		})
		if err != nil {
			return nil, err
		}
		// One client process per benchmark thread, as in the paper's
		// setup: clients are independent processes, each mapping the
		// heap at its own base, each running the Hodor loader.
		var mu sync.Mutex
		nextUID := 1000
		return &Fixture{
			Kind: kind,
			NewThread: func() (ThreadKV, error) {
				mu.Lock()
				uid := nextUID
				nextUID++
				mu.Unlock()
				cp, err := b.NewClientProcess(uid)
				if err != nil {
					return nil, err
				}
				var s *memcached.Session
				if kind == PlibHodor {
					s, err = cp.NewSession()
				} else {
					s, err = cp.NewSessionNoHodor()
				}
				if err != nil {
					return nil, err
				}
				return &kvThread{s, s.Close}, nil
			},
			CoreStats: b.Stats,
			LibMetrics: func() hodor.Metrics {
				if kind != PlibHodor {
					return hodor.Metrics{}
				}
				return b.Library().Metrics()
			},
			Close: func() { b.StopMaintenance() },
		}, nil
	}
	return nil, fmt.Errorf("bench: unknown kind %d", kind)
}

// kvThread is one benchmark thread's handle: a socket or a library
// session behind the one API.
type kvThread struct {
	kv    memcached.KV
	close func()
}

func (t *kvThread) Get(key []byte) error {
	_, _, err := t.kv.Get(key)
	return err
}
func (t *kvThread) Set(key, value []byte) error { return t.kv.Set(key, value, 0, 0) }
func (t *kvThread) Delete(key []byte) error     { return t.kv.Delete(key) }
func (t *kvThread) Incr(key []byte, d uint64) error {
	_, err := t.kv.Increment(key, d)
	return err
}
func (t *kvThread) Close() { t.close() }

// Preload stores the workload's record set through one thread handle.
func Preload(f *Fixture, w ycsb.Workload) error {
	t, err := f.NewThread()
	if err != nil {
		return err
	}
	defer t.Close()
	val := make([]byte, w.ValueSize)
	key := make([]byte, 0, 20)
	for i := uint64(0); i < w.RecordCount; i++ {
		key = ycsb.KeyInto(key, i)
		ycsb.FillValue(val, i)
		if err := t.Set(key, val); err != nil {
			return fmt.Errorf("preload record %d: %w", i, err)
		}
	}
	return nil
}

// Op names the Figure 5 operations.
type Op int

// Figure 5 rows.
const (
	OpGet Op = iota
	OpSet
	OpDelete
	OpIncr
)

func (o Op) String() string {
	return [...]string{"Get", "Set", "Delete", "Increment"}[o]
}

// OpLatency measures single-thread per-operation latency (Figure 5's
// methodology: "latency is reported … for operations in a single thread").
// The store is preloaded with `records` items of the given value size.
func OpLatency(f *Fixture, op Op, valueSize int, records uint64, samples int) (*histogram.H, error) {
	w := ycsb.Workload{RecordCount: records, ValueSize: valueSize, ReadProportion: 1}
	if err := Preload(f, w); err != nil {
		return nil, err
	}
	t, err := f.NewThread()
	if err != nil {
		return nil, err
	}
	defer t.Close()

	// Delete consumes keys; Incr needs numeric values. Prepare.
	key := make([]byte, 0, 20)
	if op == OpIncr {
		if err := t.Set([]byte("counter"), []byte("100000")); err != nil {
			return nil, err
		}
	}
	val := make([]byte, valueSize)
	h := histogram.New()
	for i := 0; i < samples; i++ {
		idx := uint64(i) % records
		key = ycsb.KeyInto(key, idx)
		var start time.Time
		var err error
		switch op {
		case OpGet:
			start = time.Now()
			err = t.Get(key)
		case OpSet:
			ycsb.FillValue(val, idx)
			start = time.Now()
			err = t.Set(key, val)
		case OpDelete:
			// Delete then silently restore so every sample deletes a
			// present key.
			start = time.Now()
			err = t.Delete(key)
			if err == nil {
				h.Record(time.Since(start))
				err = t.Set(key, val)
				if err != nil {
					return nil, err
				}
				continue
			}
		case OpIncr:
			start = time.Now()
			err = t.Incr([]byte("counter"), 1)
		}
		if err != nil {
			return nil, fmt.Errorf("%v sample %d: %w", op, i, err)
		}
		h.Record(time.Since(start))
	}
	return h, nil
}

// Throughput runs the YCSB mix on `threads` concurrent client threads for
// the given duration and returns the rate in thousands of transactions per
// second (KTPS), the unit of Figures 6–9. The fixture must already be
// preloaded.
func Throughput(f *Fixture, w ycsb.Workload, threads int, dur time.Duration) (float64, error) {
	var stop atomic.Bool
	var ops atomic.Int64
	errCh := make(chan error, threads)
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	startCh := make(chan struct{})
	for i := 0; i < threads; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(seed int64) {
			defer wg.Done()
			t, err := f.NewThread()
			if err != nil {
				ready.Done()
				errCh <- err
				return
			}
			defer t.Close()
			gen := w.NewClient(seed)
			ready.Done()
			<-startCh
			local := int64(0)
			for !stop.Load() {
				kind, key, val := gen.Next()
				if kind == ycsb.OpRead {
					// A miss is a valid YCSB outcome (evicted record);
					// only transport/store failures abort the run.
					if err := t.Get(key); err != nil && !errors.Is(err, memcached.ErrNotFound) {
						errCh <- err
						return
					}
				} else {
					if err := t.Set(key, val); err != nil {
						errCh <- err
						return
					}
				}
				local++
			}
			ops.Add(local)
		}(int64(i + 1))
	}
	ready.Wait()
	close(startCh)
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return float64(ops.Load()) / dur.Seconds() / 1000, nil
}
