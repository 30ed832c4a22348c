package bench

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"plibmc/internal/histogram"
	"plibmc/internal/hodor"
	"plibmc/internal/pku"
	"plibmc/internal/proc"
	"plibmc/internal/shm"
)

// The §2 microbenchmarks: "an empty call into a Hodor library takes about
// 40 ns … about two orders of magnitude faster than an empty messaging
// round trip on Unix domain sockets" (3.3–9.6 µs on the paper's machine).

// EmptyHodorCall measures the round-trip latency of a no-op trampolined
// library call.
func EmptyHodorCall(samples int) (*histogram.H, error) {
	heap := shm.New(shm.PageSize)
	pt := pku.NewPageTable(heap)
	dom, err := hodor.NewDomain(heap, pt)
	if err != nil {
		return nil, err
	}
	lib := hodor.NewLibrary("libnoop", 0, dom)
	p, err := proc.NewProcess(0, heap, 0x10000)
	if err != nil {
		return nil, err
	}
	res, err := (hodor.Loader{}).Load(p, hodor.Binary{}, lib)
	if err != nil {
		return nil, err
	}
	s, err := res.Attach(p.NewThread(), lib)
	if err != nil {
		return nil, err
	}
	noop := func(*proc.Thread, struct{}) (struct{}, error) { return struct{}{}, nil }
	h := histogram.New()
	// Batch 100 calls per timestamp so clock overhead (~30 ns) does not
	// dominate a ~100 ns operation.
	const batch = 100
	for i := 0; i < samples/batch; i++ {
		start := time.Now()
		for j := 0; j < batch; j++ {
			if _, err := hodor.Call(s, noop, struct{}{}); err != nil {
				return nil, err
			}
		}
		h.Record(time.Since(start) / batch)
	}
	return h, nil
}

// UDSRoundTrip measures the round-trip latency of a one-byte datagram echo
// over Unix-domain sockets, the baseline cost of asking a separate process
// for anything at all.
func UDSRoundTrip(tempDir string, samples int) (*histogram.H, error) {
	srvPath := filepath.Join(tempDir, fmt.Sprintf("echo-srv-%d.sock", os.Getpid()))
	cliPath := filepath.Join(tempDir, fmt.Sprintf("echo-cli-%d.sock", os.Getpid()))
	os.Remove(srvPath)
	os.Remove(cliPath)
	defer os.Remove(srvPath)
	defer os.Remove(cliPath)

	srvAddr := &net.UnixAddr{Name: srvPath, Net: "unixgram"}
	cliAddr := &net.UnixAddr{Name: cliPath, Net: "unixgram"}
	srv, err := net.ListenUnixgram("unixgram", srvAddr)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	go func() {
		buf := make([]byte, 1)
		for {
			n, from, err := srv.ReadFromUnix(buf)
			if err != nil {
				return
			}
			srv.WriteToUnix(buf[:n], from)
		}
	}()

	cli, err := net.ListenUnixgram("unixgram", cliAddr)
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	h := histogram.New()
	msg := []byte{42}
	buf := make([]byte, 1)
	for i := 0; i < samples; i++ {
		start := time.Now()
		if _, err := cli.WriteToUnix(msg, srvAddr); err != nil {
			return nil, err
		}
		if _, _, err := cli.ReadFromUnix(buf); err != nil {
			return nil, err
		}
		h.Record(time.Since(start))
	}
	return h, nil
}
