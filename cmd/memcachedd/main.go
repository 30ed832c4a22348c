// Command memcachedd runs the socket front ends.
//
// Default mode is the baseline: the from-scratch reimplementation of the
// original socket-based memcached that the paper compares against.
//
//	memcachedd -listen unix:/tmp/mc.sock -threads 4 -m 1024
//
// With -shards N it instead fronts a cluster of N protected-library
// stores behind the consistent-hash proxy tier: baseline-protocol clients
// get sharding transparently, and each shard keeps its own backing file,
// checkpoint slots, and repair domain.
//
//	memcachedd -shards 4 -path /var/lib/plibmc -listen tcp:0.0.0.0:11211
//
// With -shards 1 it is the bookkeeping daemon of one protected-library
// store (paper §6): it keeps the store alive, runs its maintenance, serves
// remote processes over the socket, checkpoints it every -checkpoint-secs
// and flushes it on shutdown, so a restart resumes with its contents.
//
//	memcachedd -shards 1 -path /var/lib/plibmc -listen unix:/tmp/plib.sock
//
// A -path directory that already holds a shard image is reopened at the
// geometry its ring.json records, whatever -shards says.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"plibmc/internal/server"
	"plibmc/memcached"
)

func main() {
	var (
		listen  = flag.String("listen", "unix:/tmp/memcachedd.sock", "net:addr to listen on")
		threads = flag.Int("threads", 4, "number of server threads (the paper compares 4 and 8)")
		memMB   = flag.Int64("m", 1024, "memory limit in MiB")
		hashPow = flag.Uint("hashpower", 16, "log2 of the bucket count")
		metrics = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) over HTTP on this address; with -shards, every shard's store metrics under a shard label, and /admin")

		shards  = flag.Int("shards", 0, "front a cluster of N protected-library stores instead of the baseline (0 = baseline)")
		path    = flag.String("path", "", "cluster mode: directory holding one backing file per shard (empty = in-memory shards)")
		ckptSec = flag.Int("checkpoint-secs", 0, "cluster mode: per-shard checkpoint interval in seconds (0 = only on shutdown)")
	)
	flag.Parse()

	network, addr, ok := strings.Cut(*listen, ":")
	if !ok {
		fmt.Fprintln(os.Stderr, "memcachedd: -listen must be net:addr")
		os.Exit(1)
	}
	if network == "unix" {
		os.Remove(addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *shards > 0 {
		runCluster(network, addr, *shards, *path, *ckptSec, *memMB, *hashPow, *metrics, sig)
		return
	}

	srv, err := server.New(server.Config{
		Network: network, Addr: addr, Threads: *threads,
		MemLimit: *memMB << 20, HashPower: *hashPow,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "memcachedd:", err)
		os.Exit(1)
	}
	fmt.Printf("memcachedd: listening on %s with %d server threads\n", *listen, *threads)
	go srv.Serve()
	if *metrics != "" {
		go func() {
			if err := http.ListenAndServe(*metrics, srv.Store().MetricsHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "memcachedd: metrics server:", err)
			}
		}()
		fmt.Printf("memcachedd: metrics on http://%s/metrics\n", *metrics)
	}

	<-sig
	srv.Close()
	snap := srv.Store().Snapshot()
	fmt.Printf("memcachedd: stopped; %d items, %d gets (%d hits), %d sets, %d evictions\n",
		snap.CurrItems, snap.Gets, snap.GetHits, snap.Sets, snap.Evictions)
}

// runCluster serves the sharded proxy tier: N protected-library stores
// behind one listener.
func runCluster(network, addr string, shards int, dir string,
	ckptSec int, memMB int64, hashPow uint, metricsAddr string,
	sig chan os.Signal) {
	c, reopened, err := openCluster(memcached.ClusterConfig{
		Shards: shards,
		Dir:    dir,
		Store: memcached.Config{
			// The per-process memory budget divides across shards so
			// -m means the same thing in both modes.
			HeapBytes: uint64(memMB<<20) / uint64(shards),
			HashPower: hashPow,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "memcachedd:", err)
		os.Exit(1)
	}
	srv, err := c.ServeRemote(network, addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memcachedd:", err)
		os.Exit(1)
	}
	fmt.Printf("memcachedd: %d-shard cluster proxy on %s:%s (reopened=%v)\n",
		c.Shards(), network, addr, reopened)
	c.StartMaintenance(time.Second)
	c.StartSupervisor(time.Second)
	if ckptSec > 0 && dir != "" {
		c.StartCheckpointing(time.Duration(ckptSec) * time.Second)
	}
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", c.MetricsHandler())
		// POST /admin/resize?shards=N — start a live resharding to N
		// shards; the background migrator streams segments while the
		// proxy keeps serving. GET /admin/migration reports progress.
		mux.HandleFunc("/admin/resize", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			n, err := strconv.Atoi(r.URL.Query().Get("shards"))
			if err != nil || n < 1 {
				http.Error(w, "resize: ?shards=N (N >= 1) required", http.StatusBadRequest)
				return
			}
			if err := c.Resize(n); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, "resizing to %d shards\n", n)
		})
		mux.HandleFunc("/admin/migration", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(c.MigrationStatus()) //nolint:errcheck
		})
		// GET /admin/shards — per-shard lifecycle state: breaker position,
		// rebuild counters, whether the shard came up empty at open.
		mux.HandleFunc("/admin/shards", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(c.ShardStatuses()) //nolint:errcheck
		})
		go func() {
			if err := http.ListenAndServe(metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "memcachedd: metrics server:", err)
			}
		}()
		fmt.Printf("memcachedd: cluster metrics on http://%s/metrics, admin on /admin/resize, /admin/migration, /admin/shards\n", metricsAddr)
	}

	<-sig
	srv.Close()
	if err := c.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "memcachedd: shutdown:", err)
	}
	agg := c.Stats()
	fmt.Printf("memcachedd: cluster stopped; %d items, %d gets (%d hits), %d sets across %d shards\n",
		agg.CurrItems, agg.Gets, agg.GetHits, agg.Sets, c.Shards())
}

// openCluster reopens the cluster in cfg.Dir, or creates one when there is
// no directory or it holds no shard image or checkpoint slot. A ring.json
// alone holds no data (a daemon killed before its first checkpoint leaves
// just that), so it is created over. Anything else is an existing cluster,
// and OpenCluster takes its geometry from ring.json and rebuilds only the
// shards whose images are lost. When that fails the error is returned:
// formatting over the directory would destroy what survives and let its
// stale checkpoint generations outrank the new store's.
func openCluster(cfg memcached.ClusterConfig) (c *memcached.Cluster, reopened bool, err error) {
	if cfg.Dir == "" || !holdsImage(cfg.Dir) {
		c, err = memcached.CreateCluster(cfg)
		return c, false, err
	}
	c, err = memcached.OpenCluster(cfg)
	return c, true, err
}

// holdsImage reports whether dir holds any file of a shard's image.
func holdsImage(dir string) bool {
	m, _ := filepath.Glob(filepath.Join(dir, "shard-*.img*"))
	return len(m) > 0
}
