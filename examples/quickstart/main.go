// Quickstart: create a protected-library store, attach a client process,
// and perform K-V operations as direct trampolined calls — no server, no
// sockets.
package main

import (
	"fmt"
	"log"

	"plibmc/memcached"
)

func main() {
	// The bookkeeping process creates the store: a shared heap managed by
	// Ralloc, protected by a Hodor domain.
	book, err := memcached.CreateStore(memcached.Config{
		HeapBytes: 32 << 20,
		HashPower: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer book.Shutdown()

	// A client application loads the library: its binary is scanned for
	// stray wrpkru instructions and the trampolines are linked.
	app, err := book.NewClientProcess(1000)
	if err != nil {
		log.Fatal(err)
	}

	// Each client thread opens a session; every operation below is a
	// direct function call through a Hodor trampoline.
	sess, err := app.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	if err := sess.Set([]byte("greeting"), []byte("hello, shared world"), 0, 0); err != nil {
		log.Fatal(err)
	}
	value, flags, err := sess.Get([]byte("greeting"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("get(greeting) = %q (flags %d)\n", value, flags)

	sess.Set([]byte("hits"), []byte("41"), 0, 0)
	n, err := sess.Increment([]byte("hits"), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("increment(hits) = %d\n", n)

	// The asynchronous API of §3.1: a direct call completes immediately,
	// so the callback has run by the time GetAsync returns.
	sess.GetAsync([]byte("greeting"), func(v []byte, _ uint32, err error) {
		fmt.Printf("async callback: %q (err %v)\n", v, err)
	})

	// A heterogeneous batch crosses into the library once for all its ops;
	// each result carries its own error.
	res, err := sess.ExecBatch([]memcached.BatchOp{
		{Code: memcached.BatchSet, Key: []byte("a"), Value: []byte("1")},
		{Code: memcached.BatchIncr, Key: []byte("a"), Delta: 1},
		{Code: memcached.BatchGet, Key: []byte("missing")},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch: incr=%d, miss err=%v\n", res[1].Num, res[2].Err)

	st, _ := sess.Stats()
	fmt.Printf("stats: %d gets, %d sets, %d items, %d bytes\n",
		st.Gets, st.Sets, st.CurrItems, st.Bytes)
	fmt.Printf("wrpkru executed %d times (two per trampolined call)\n",
		app.Process().WRPKRUCount())
}
