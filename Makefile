# Developer entry points. The repo needs only the Go toolchain.

GO ?= go

.PHONY: build test check fmtcheck unsafecheck wirecheck fuzz faultmatrix corruptmatrix corruptmatrix-long modelcheck modelcheck-long gatehard shardcheck reshardcheck survivecheck diskfault bench benchdiff bench-noisy bench-seqlock bench-recovery bench-metrics bench-batch bench-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the gate for concurrency-sensitive changes: vet everything, then
# run the packages that carry the seqlock/grave protocol under the race
# detector (which exercises the sync/atomic build of the relaxed accessors),
# a short chaos soak, the crash-at-every-point fault matrix, and the coarse
# clock: its ticker, and the watchdog and store on a stepped clock. The
# quiesce-under-load test runs 100 times: a count that sees a phantom entry
# fails it only now and then (its gate model runs in the core line above).
check: build fmtcheck unsafecheck wirecheck faultmatrix corruptmatrix modelcheck gatehard shardcheck reshardcheck survivecheck diskfault
	$(GO) vet ./...
	$(GO) test -race -count=1 ./internal/core ./internal/shm
	$(GO) test -race -count=100 -run 'TestConcurrentQuiesceUnderLoad$$' ./internal/core
	$(GO) test -race -count=1 -short -run TestChaosKillsNeverCorrupt .
	$(GO) test -race -count=1 -run 'TestMetrics|TestWrite|TestStatsLatency|TestClusterMetrics' ./memcached ./internal/metrics ./internal/server
	$(GO) test -race -count=1 -run 'TestExecBatch|TestMGet|TestAsyncCallbackImmediate|TestHybridPipelineBatches|TestSessionMGet|TestVirtualDomains|TestCrossingAccounting|TestSessionChurn|TestLoopStartStopRace|TestWatchdogNeverEarlyOnCoarseStamps|TestStoreClockIsTheWord|TestSessionPoolDiscardsReapedSession' ./internal/core ./internal/hodor ./memcached
	$(GO) test -race -count=1 ./internal/mono

fmtcheck:
	@test -z "$$(gofmt -l .)" || { echo "gofmt would change:"; gofmt -l .; exit 1; }

# The unsafe budget (DESIGN.md §3): one non-test file imports unsafe — the
# one that builds the heap's byte view — the view is named nowhere but in
# its constructor and in Heap.view, the only exported Heap method that
# returns bytes is the copying one, and vet's unsafeptr pass accepts it.
unsafecheck:
	@test "$$(grep -rl --include='*.go' --exclude='*_test.go' '"unsafe"' .)" = ./internal/shm/heap.go || \
		{ echo "unsafe imported outside internal/shm/heap.go:"; grep -rl --include='*.go' --exclude='*_test.go' '"unsafe"' .; exit 1; }
	@test "$$(grep -c '\.raw\b' internal/shm/*.go | grep -v ':0$$')" = internal/shm/bytes.go:1 || \
		{ echo "Heap.raw is read outside Heap.view:"; grep -n '\.raw\b' internal/shm/*.go; exit 1; }
	@test "$$(grep -ohE '^func \(h \*Heap\) [A-Z]\w*\([^)]*\) \[\]byte' internal/shm/*.go)" = 'func (h *Heap) Bytes(off, n uint64) []byte' || \
		{ echo "an exported Heap method other than Bytes returns a byte slice"; exit 1; }
	$(GO) vet -unsafeptr ./internal/shm

# The wire gate (DESIGN.md §12 "Who owns the bytes"): both codecs with
# their fuzz seed corpora, the socket client and the baseline server, then
# every front end's wire tables — lone vs pipelined, the malformed-input
# table, no alias of the read window kept past its run, the zero-allocation
# pin on the server path, failed crossings as server errors, a crash under
# a connection repaired online, connection churn bounded by the
# servers' session pools, and the KV conformance table over every session
# type and every server in both protocols — all under the race detector,
# which is what would see a command used after its window moved on.
wirecheck:
	$(GO) test -race -count=1 ./internal/protocol ./internal/client ./internal/server
	$(GO) test -race -count=1 -run 'TestWire|TestMalformed|TestServe|TestKVConformance' . ./memcached

# Explore from the seed corpora, 30 s a target (the seeds themselves run
# in every plain `go test`). A failing input is written under
# internal/protocol/testdata/fuzz/: commit it with the fix.
fuzz:
	for f in FuzzBinaryCommand FuzzASCIICommand FuzzBinaryReply FuzzASCIIReply FuzzServeConnChunking; do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime=30s ./internal/protocol || exit 1; \
	done

# The linearizability gate (DESIGN.md "Model-based history checking"):
# record mixed workloads through the real session paths — seqlock fast
# path on, fault points armed in the crash rounds — and verify every
# history against the sequential reference model, plus the seeded-bug
# self-tests that prove the checker can actually catch and shrink a
# violation. -short trims the op budgets; modelcheck-long runs the full
# sizes and accepts -modelcheck.ops / -modelcheck.seed overrides.
modelcheck:
	$(GO) test -race -count=1 -short -run 'TestModelCheck' .
	$(GO) test -race -count=1 ./internal/model ./internal/linearcheck

modelcheck-long:
	$(GO) test -race -count=1 -run 'TestModelCheck' -timeout 30m .

# The gate-hardening gate (DESIGN.md §13): the Garmr-style attack suite —
# stray wrpkru, confused deputy, zombie re-entry, hostile mid-batch abort,
# pin exhaustion, admission control, live reap-and-repair — plus the
# vtable/trampoline concurrency and rollover tests, the lock-owner token's
# uniqueness, and process churn (clients, killed clients, crashed clients,
# servers and migrators that leave the process registry as they found it),
# all under the race detector. Every attack must be contained (no
# cross-tenant read, no permanent poison, online recovery).
gatehard:
	$(GO) test -race -count=1 -run 'TestGateHard' .
	$(GO) test -race -count=1 ./internal/pku ./internal/gatehard ./internal/hodor ./internal/proc ./internal/client ./internal/server
	$(GO) test -race -count=1 -run 'TestProcessChurnForgets|TestClusterClientCloseForgets|TestProcessCloseRacesSessionClose|TestCloseKeepsInFlightCall' ./memcached

# The shard-isolation gate (DESIGN.md §14): the placement ring's
# determinism/balance/minimal-movement properties, the cluster routing and
# proxy tier, a fault-injected crash + online repair on one shard of a
# 4-shard cluster with zero survivor errors, and the sharded
# model-checker round — all under the race detector.
shardcheck:
	$(GO) test -race -count=1 -run 'TestShardCrashIsolation' .
	$(GO) test -race -count=1 -short -run 'TestModelCheckSharded' .
	$(GO) test -race -count=1 ./internal/ring
	$(GO) test -race -count=1 -run 'TestCluster' ./memcached

# The live-resharding gate (DESIGN.md §15): a mixed workload linearizes
# exactly across a live 4→6 resize with zero client errors, the migrator
# survives being killed mid-segment and crashing inside its own gate
# crossing (both shards repair online and the migration resumes), the
# batch plane keeps positional alignment when one shard's crossing fails,
# the resized manifest wins over a stale config on reopen (and the
# daemon reopens a directory, never formats it, whatever -shards says or
# whichever shard's images are lost), a grown
# shard runs the cluster's maintenance and checkpoint loops, so a crash
# after a grow reopens every key, a resize that aborts, parks or cannot
# write its manifest loses no acknowledged write, a resize is refused
# while a shard is poisoned, and a shard poisoned mid-resize ends the
# resize instead of wedging it — all under the race detector.
reshardcheck:
	$(GO) test -race -count=1 -short -run 'TestModelCheckResize|TestResizeCrashIsolation|TestClusterReopenAfterResize' .
	$(GO) test -race -count=1 ./cmd/memcachedd
	$(GO) test -race -count=1 -run 'TestClusterExecBatchShardFailure|TestResizedShardsRunClusterLoops|TestReopenAfterGrowWithoutShutdown|TestResizeAbortKeepsWrites|TestResizeParkKeepsWrites|TestResizeManifestFailureKeepsWrites|TestResizeRefusesPoisonedShard|TestResizeAbortsOnShardPoisonedMidMigration' ./memcached
	$(GO) test -race -count=1 ./internal/ring

# The shard-lifecycle gate (DESIGN.md §16): an unrepairable crash poisons
# one shard of a 4-shard cluster and the supervisor must rebuild it with
# no operator action — survivors serve a full mixed workload with zero
# errors and their merged history linearizes exactly, the rebuilt shard
# reopens from its checkpoint and serves fresh writes past the dead
# heap's CAS mark — plus the breaker state machine, the degraded open,
# the fail-fast frames on the proxy wire (read back by a socket session as
# failures naming the shard, as the crossing that trips the breaker names
# it too), proxy traffic probing and closing
# a half-open breaker, and the session-pool recovery classification, all
# under the race detector. The survivor-latency half
# of the claim is a self-gated benchmark (2x the quiet-baseline p99).
survivecheck:
	$(GO) test -race -count=1 -run 'TestSurviveCheck' .
	$(GO) test -race -count=1 -run 'TestSupervisor|TestBreaker|TestUnsupervisedBreakerRecovers|TestShardAllowFastFailsWhileRebuilding|TestOpenClusterDegraded|TestProxyReportsShardDownFrames|TestProxyTrafficClosesHalfOpenBreaker|TestProxyFlushAllFailsBehindOpenBreaker|TestSocketSessionNamesPoisonedShard|TestTrippingCrossingNamesShard|TestRebuildShard|TestSessionFatalClassifiesRecoveryErrors|TestSessionPoolKeepsSessionOnShardDown' ./memcached
	$(GO) test -run xxx -bench BenchmarkRebuildSurvivor -benchtime 1x .

# The disk-fault gate (DESIGN.md §16): inject EIO/ENOSPC/torn-rename at
# every step of the image-write path (create, write, sync, close, rename)
# and require containment — the prior checkpoint generation stays the
# loadable state, no half-built temp survives, the failure is counted and
# exported, and the store itself stays healthy and keeps serving. A heap
# word that moves while an image is written fails that write, and
# checkpoints taken under live traffic reload.
diskfault:
	$(GO) test -race -count=1 -run 'TestWriteImageFault|TestWriteImageTornRename|TestWriteImageHeapChangedMidWrite|TestCheckpointSlotsSurviveFaults' ./internal/shm
	$(GO) test -race -count=1 -run 'TestDiskFaultCheckpointDegrades|TestCheckpointWhileServing' ./memcached

# The cost ledger (ROADMAP aim 1): five named workloads, ten end-to-end
# metrics, a traced per-layer ladder; results land in benchmark/out/.
# benchdiff judges two result files against the bounds in BENCHMARK.json:
#	make benchdiff A=benchmark/results/BENCH_12.json B=benchmark/out/bench-all-seed1-traceboth.json
bench:
	$(GO) run ./benchmark

benchdiff:
	$(GO) run ./benchmark -compare $(A) $(B)

# The noisy-tenant fairness sweep: p99 latency of well-behaved tenants with
# one hostile tenant pumping batched writes through its admission quota.
# The benchmark gates itself at 2x the quiet baseline — a latency ratio on
# a shared box, so it is run by hand and is not part of check.
bench-noisy:
	$(GO) test -run xxx -bench BenchmarkNoisyTenant -benchtime 1x .

# The crash-recovery gate: kill a client at every registered crash point
# and require quarantine -> repair -> resume, with the recovery machinery
# itself (hodor state machine, repair passes) under the race detector.
faultmatrix:
	$(GO) test -race -count=1 -run TestFaultMatrix .
	$(GO) test -race -count=1 ./internal/faultpoint ./internal/hodor

# The corruption gate: flip bits in every class of live and on-disk state
# (item headers, values, chain and LRU links, stats slots, persistent
# roots, image headers) and require salvage-or-degrade — never a wrong
# value, never an unrecovered panic. -short trims the recovery-cycle
# classes; corruptmatrix-long runs all seven plus the kill-during-
# checkpoint chaos round.
corruptmatrix:
	$(GO) test -race -count=1 -short -run 'TestCorruptionMatrix' .
	$(GO) test -race -count=1 ./internal/corrupt

corruptmatrix-long:
	$(GO) test -race -count=1 -run 'TestCorruptionMatrix|TestChaosKillDuringCheckpoint' .
	$(GO) test -race -count=1 ./internal/corrupt

# The locked-vs-optimistic read path ablation (DESIGN.md §6).
bench-seqlock:
	$(GO) test -run xxx -bench BenchmarkAblationSeqlockRead -benchtime 2s ./internal/core

# Time-to-resume after an injected crash (DESIGN.md "Failure model").
bench-recovery:
	$(GO) test -run xxx -bench BenchmarkRecovery -benchtime 20x .

# Latency-recording cost: the 95/5 mix with histograms on vs off
# (DESIGN.md §9; the budget is <=5% throughput).
bench-metrics:
	$(GO) test -run xxx -bench BenchmarkAblationMetrics -benchtime 2s .

# Batched-crossing ablation (DESIGN.md §12): crossings-per-op vs batch size
# on the 95/5 mix, plus the MGet amortization pair. These benchmarks gate
# themselves — BenchmarkAblationBatch fails above 0.1 crossings/op at batch
# sizes >= 16, BenchmarkMGetAmortization fails below a 2x per-key speedup
# for the 64-key batched path: the median of per-round ratios, the lone
# Gets and the MGets timed in alternating rounds of one run.
bench-batch:
	$(GO) test -run xxx -bench 'BenchmarkAblationBatch|BenchmarkMGetAmortization' -benchtime 2s .

# The gate tax, part by part (DESIGN.md §13 "What a warm crossing costs"):
# each piece of a warm hodor crossing and of the cluster's routing wrapped
# around it, priced alone beside the whole — a 64-key batch tier by tier
# (DESIGN.md §12 "What a batch costs") — and what core.Ctx does once per
# operation beneath them all (DESIGN.md §6 "What one operation costs"),
# down to the heap's bulk byte routines those operations are made of. A
# change to any of them says which row it moved. Then contention, which no
# one-thread row shows: routed Gets from one session per goroutine at one
# and two CPUs, ops/s at each and the 2/1 ratio (DESIGN.md §6). Timings on
# a shared box: run by hand, not part of check.
bench-gate:
	$(GO) test -run xxx -bench 'BenchmarkGateParts|BenchmarkRouteParts|BenchmarkBatchParts|BenchmarkCoreParts|BenchmarkHeapBytes' -benchtime 2s ./internal/hodor ./memcached ./internal/core ./internal/shm
	$(GO) test -run xxx -bench 'BenchmarkParallelGet' -cpu 1,2 -benchtime 2s ./memcached
