// Command loccount reproduces the code-complexity comparison of §4.2: the
// paper reports that converting memcached to a protected library removed
// ~6800 lines (≈5200 of socket/protocol handling, ≈1600 of slab memory
// management) and added ~600, a net reduction of ~24% on a ~26 KLoC base.
//
// In this repository both versions coexist, so the analog is a static
// count over the tree: the modules that exist only for the socket baseline
// (deleted by the conversion) versus the files the conversion added
// (sessions over Hodor, the bookkeeper, the hybrid socket front end, the
// classic-API shim), with the K-V data plane common to both. Everything
// else under memcached/ — sharding, live resize, the supervisor, the proxy,
// pools, checkpoints, recovery, metrics — goes beyond the paper and is
// reported as its own row, outside the comparison.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

type category struct {
	name  string
	desc  string
	paths []string // directories or files, relative to the root
	skip  []string // paths under them that belong to another category
}

// conversion is what turning memcached into a protected library added.
var conversion = []string{"memcached/session.go", "memcached/store.go", "memcached/hybrid.go", "memcached/compat"}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	categories := []category{
		{
			name:  "baseline-only (deleted by the conversion)",
			desc:  "socket server, wire protocols, client library, slab allocator",
			paths: []string{"internal/server", "internal/protocol", "internal/client", "internal/slab"},
		},
		{
			name:  "plib conversion (added by the conversion)",
			desc:  "sessions over Hodor, bookkeeper, hybrid front end, classic-API shim",
			paths: conversion,
		},
		{
			name:  "shared data plane",
			desc:  "hash table, items, LRU, stats (both versions)",
			paths: []string{"internal/core"},
		},
		{
			name:  "substrates",
			desc:  "Hodor runtime, Ralloc, shared memory, PKU, processes",
			paths: []string{"internal/hodor", "internal/ralloc", "internal/shm", "internal/pku", "internal/proc"},
		},
		{
			name:  "extensions beyond the paper",
			desc:  "cluster, live resize, supervisor, proxy, pool, checkpoint, recovery, metrics",
			paths: []string{"memcached"},
			skip:  conversion,
		},
	}

	fmt.Println("== §4.2 analog: code volume by role (non-test Go lines) ==")
	lines := make([]int, len(categories))
	total := 0
	for i, cat := range categories {
		for _, p := range cat.paths {
			n, err := count(*root, p, cat.skip)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loccount: %s: %v\n", p, err)
				os.Exit(1)
			}
			lines[i] += n
		}
		total += lines[i]
		fmt.Printf("%-45s %6d lines   (%s)\n", cat.name, lines[i], cat.desc)
	}
	fmt.Printf("%-45s %6d lines\n", "total", total)

	removed, added := lines[0], lines[1]
	base := removed + lines[2] + lines[3]
	fmt.Printf("\noriginal-equivalent base (baseline-only + shared + substrates): %d lines\n", base)
	fmt.Printf("removed by conversion: %d lines (%.0f%% of base; paper: ~26%%)\n",
		removed, 100*float64(removed)/float64(base))
	fmt.Printf("added by conversion:   %d lines (%.0f%% of base; paper: ~2%%)\n",
		added, 100*float64(added)/float64(base))
	fmt.Printf("net change: %+.0f%% (paper: ~-24%%)\n",
		100*(float64(added)-float64(removed))/float64(base))
}

// count counts non-blank lines in non-test Go files at or under path,
// leaving out anything at or under a skip path.
func count(root, path string, skip []string) (int, error) {
	total := 0
	err := filepath.WalkDir(filepath.Join(root, path), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		for _, s := range skip {
			if path == filepath.Join(root, s) {
				if d.IsDir() {
					return filepath.SkipDir
				}
				return nil
			}
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				total++
			}
		}
		return sc.Err()
	})
	return total, err
}
