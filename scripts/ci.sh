#!/bin/sh
# CI gate: formatting, vet, the cadaptivelint determinism checks, build, the
# full test suite (shuffled), the separate perfbench module, then a
# race-detector pass over the concurrency-sensitive packages (the engine and
# everything that fans out on it), including the worker-count determinism
# test. Run from the repo root:
#
#   ./scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

# gate PATTERN ARGS...: run `go test -run PATTERN ARGS...`, after checking
# the pattern against the packages among ARGS (the ./-prefixed ones). A
# -run pattern that matches nothing passes silently, so a renamed test
# would quietly empty its gate. The check lists each package's tests once
# (go test -list) and fails unless every package matches the pattern and
# every |-separated alternative names at least one test.
gate() {
    pattern=$1
    shift
    listed=$(mktemp)
    pkglist=$(mktemp)
    for arg in "$@"; do
        case $arg in ./*) ;; *) continue ;; esac
        go test -list '.*' "$arg" >"$pkglist"
        grep -E '^(Test|Fuzz|Example)' "$pkglist" >>"$listed" || true
        if ! grep -E '^(Test|Fuzz|Example)' "$pkglist" | grep -Eq "$pattern"; then
            echo "gate: pattern '$pattern' lists no tests in $arg" >&2
            exit 1
        fi
    done
    for alt in $(printf '%s' "$pattern" | tr '|' ' '); do
        if ! grep -Eq "$alt" "$listed"; then
            echo "gate: '$alt' in pattern '$pattern' names no test" >&2
            exit 1
        fi
    done
    rm -f "$listed" "$pkglist"
    go test -run "$pattern" "$@"
}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== cadaptivelint =="
# Zero findings repo-wide is the gate: the annotation-driven lockguard and
# hotpath contracts (see DESIGN.md "Concurrency & allocation contracts")
# fail the build alongside the six structural checks.
go run ./cmd/cadaptivelint ./...

echo "== hotpath/alloc consistency =="
# Every //lint:hotpath annotation must be backed by an AllocsPerRun test
# (//allocguard marker), and no marker may outlive its annotation.
gate 'TestHotpathAllocConsistency' -count=1 ./internal/lint/

echo "== go build =="
go build ./...

echo "== go test =="
# -shuffle=on randomizes test order within each package, so tests that
# secretly depend on a sibling's side effects fail here instead of later.
go test -shuffle=on ./...

echo "== perfbench module =="
# perfbench/ is a module of its own (joined to the checkout by its go.work),
# so the ./... steps above never compile it. It calls exported names no
# product code may still need (regular.SyntheticTrace, paging.PolicyRun,
# paging.RunPolicyFixed, paging.SquareEmitParallel, profile.NewSliceSource
# as a profile.Source, ...); vetting and testing it here makes deleting or
# reshaping one of them fail CI.
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race (short) =="
# Beside the engine fan-out tests: core's Monte-Carlo level sweep (each
# cell once at its slot, the first failure, 1 vs 4 workers), the E4, E5,
# E10 and A5 fan-outs under the run's context (cancelled mid-run, and
# every trial counted as a cell), and the declared-inputs contract of the cache
# key (register's check, the key moving exactly with declared fields, the
# pinned full-input key, runTimed's projection, E10's seed read, the JSON
# names). Beside them, Lemma 3's and GapOnDist's per-worker executors at
# 1 vs 4 workers (GapOnDist's against a fresh executor per trial), and the
# process-wide memo of A2's and A7's seed-free rows: tables from
# a memo another seed filled against computing every row, eight
# concurrent runs racing on cold keys, and a failed computation stored
# nowhere.
gate 'TestMap|TestNested|TestShared|TestGroup|TestTrialsDeterministicAcrossWorkers|TestRunAllDeterministicAcrossWorkers|TestSweep|TestE10HonoursCancellation|TestE4HonoursCancellation|TestE5HonoursCancellation|TestA5HonoursCancellation|TestRegisterRejectsUndeclaredInputs|TestCacheKey$|TestCacheKeyPinnedForFullInputs|TestRunTimedProjectsConfig|TestE10SamplesMoveWithSeed|TestInputNamesMatchConfigTags|TestCheckLemma3DeterministicAcrossWorkers|TestGapOnDistMatchesFreshExecs|TestSeedFreeRowsMatchDirect|TestSeedFreeConcurrentRuns|TestSeedFreeStoresOnlySuccesses' \
    -race -short \
    ./internal/engine/ \
    ./internal/adaptivity/ \
    ./internal/core/

echo "== go test -race (service + paging properties) =="
# Among them, the /v1/run reply spliced around the cached table against
# encoding the whole response, for every experiment's table.
gate 'TestService|TestCache|TestLRU|TestFIFO|TestOPT|TestHitsPlusMisses|TestShrink|TestClient|TestSharedOPTRecordingMatchesPerCall|TestRunResponseSplice' \
    -race -short \
    ./internal/service/ \
    ./internal/paging/

echo "== go test -race (fault injection) =="
go test -race -short ./internal/fault/

echo "== go test -race (sharded result cache) =="
# The sharded cache under concurrency: singleflight per shard, the
# differential replay against the single-mutex oracle, the bytes and
# entry bounds the LRU order evicts under, and one entry serving every
# seed of an experiment that does not read the seed.
gate 'TestCacheDifferential|TestCacheBytesBound|TestCacheShardRouting|TestCacheDisabled|TestServiceTablesIdenticalAcrossShardCounts|TestServiceCachedAcrossSeeds' \
    -race -short -count=1 \
    ./internal/service/

echo "== go test -race (policy registry + adaptive kernels) =="
# The ReplacementPolicy registry end to end: ARC/2Q differential oracles,
# the by-name box replay (PolicyStream, Replay/PolicyRun and the opt box
# replay), the registry-name plumbing through MeasureTracePolicy, the
# Hit-then-Access vs Contains-then-Access differential over every kernel,
# and the one-pass LRU/OPT fault curves against per-capacity replays.
# Beside them, every kernel against its oracle at the edges of its layout
# (capacities around powers of two, FIFO's ring wrapping and growing,
# ghost hits unlinked mid-queue, windows of E13's trace), and E12's table
# from one shared opt recording per size against a recording per run, at
# 4 engine workers. Last, one kernel reused across E13's capacity sweep on
# both dims against a fresh kernel per capacity.
gate 'TestARC|Test2Q|TestTwoQ|TestPolicy|TestReplayOPT|TestMeasureTracePolicy|TestKernelHitMatchesContainsThenAccess|TestFaultCurvesMatchFixedReplays|TestKernelsMatchOracles|TestFIFORingWraps|TestGhostHitsUnlinkFromQueueMiddle|TestE12SharedOPTMatchesPerCall|TestRunKernelFixedReuseMatchesFresh' \
    -race -short -count=1 \
    ./internal/paging/ \
    ./internal/adaptivity/ \
    ./internal/core/

echo "== go test -race (symbolic executor) =="
# The level-indexed executor against the division-based one it replaced,
# over every layout and box stream the experiments use, and the per-level
# scan-length table it and the generators read against ScanLen.
gate 'TestExecMatchesDivisionExecutor|TestScanLensMatchScanLen' -race -count=1 ./internal/regular/

echo "== go test -race (square replay) =="
# The sharded square replay the benchmark's shard probe measures
# (plan/execute determinism at explicit shard and worker counts, the
# ledger-merge equivalence), race-checked since shards share the engine
# pool; beside it the serial repeated replay and the worst-case completion
# count built on it (Completions, and its edge cases), the shared box-size
# error text, the box-limit early-stop regressions and the square
# MeasureTrace replays. Last, the exhaustive No-Catch-up (Lemma 2) check
# of SquareRunFrom against a brute-force square replay.
gate 'TestSquareRunParallel|TestSquareEmitParallel|FuzzParallelMatchesSerial|TestServedRepeat|TestServedEmitRepeat|TestCompletions|TestBoxSizeErrorParity|TestReplayRangeHalts|TestServedEmitRepeatHalts|TestDefaultShards|TestMeasureTrace|TestNoCatchupExhaustive' \
    -race -short \
    ./internal/paging/ \
    ./internal/adaptivity/

echo "== chaos smoke =="
# The deterministic fault storm: concurrent clients against a real server
# with every injection point armed at a fixed seed. Asserts process
# survival, no deadlock, valid statuses, metrics conservation, and
# post-retry result identity with a fault-free run. Under -race so the
# fault paths (panic containment, queue shedding) are also race-checked.
gate 'TestChaos' -race -count=1 ./internal/service/

echo "== go test -race (durable batch jobs) =="
# The jobs layer end to end under the race detector: scheduler fairness,
# retry/poison accounting, journal replay, manager kill/resume (also of
# cells sharing one key), and the service-level jobs API including resume
# across server instances.
gate 'TestJob|TestJournal|TestSpec|TestRetry|TestTransient|TestCancel|TestSubmit|TestWeighted|TestKillRestartResume|TestDuplicateKeyCells|TestResume|TestRestore|TestSchedulerFaults|TestServiceJobs|TestServiceHealthz' \
    -race -count=1 \
    ./internal/jobs/ \
    ./internal/service/

echo "== kill-and-restart smoke =="
# The durability claim, end to end: SIGKILL a real cadaptived mid-job (no
# shutdown path runs), restart it on the same -jobs-dir, and assert the job
# completes while only the journal-missing cells recompute.
gate 'TestDaemonKillRestartResume' -race -count=1 ./cmd/cadaptived/

echo "== go test -race (shared cache + smoothing) =="
go test -race -short \
    ./internal/sharedcache/ \
    ./internal/smoothing/

echo "== draw-identity differentials =="
# The forms E3-E7 draw through, each against the form it replaced: the
# in-place shuffle, perturbation and rotation sources against the eager
# smoothings, the one-stream f/f' sampler against two seeded streams, and
# the bounded and weighted draws against their old arithmetic. Beside them,
# A2's streamed raw profiles against the materialized ones: the streamed
# square reduction against the slice greedy, the walk's draw order, the
# per-miss LRU replay against indexing the profile, and A2's table at
# several seeds. Likewise A1's re-emitted shuffled traces against
# materializing each once, at several seeds.
gate 'TestSourcesMatchEager|TestShuffleIndexRejectsMoreThan256Sizes|FuzzSmoothingSourcesMatchEager|TestStoppingSampler|TestBoundedUint64|TestWeightedSearchMatchesBinarySearch|TestSquarizeRawMatchesSliceGreedy|TestRandomWalkDrawOrder|TestRunLRUProfileMatchesSlice|TestA2MatchesSlicePath|TestA1MatchesMaterializedPath' \
    -race -count=1 \
    ./internal/smoothing/ \
    ./internal/adaptivity/ \
    ./internal/xrand/ \
    ./internal/profile/ \
    ./internal/paging/ \
    ./internal/core/

echo "== bench smoke =="
# One iteration of every benchmark so the bench harness can't bit-rot:
# this compiles and executes each bench body (including the paging
# kernel-vs-oracle replay benches and the streaming-pipeline benches)
# without measuring anything.
go test -run=NONE -bench=. -benchtime=1x ./...

echo "== fuzz smoke =="
# Five seconds per fuzz target: enough to exercise the mutator on the
# checked-in corpora without stalling CI. -run '^$' skips the unit tests
# (already covered above) so only the fuzzing engine runs.
go test -run '^$' -fuzz '^FuzzParseID$' -fuzztime 5s ./internal/core/
go test -run '^$' -fuzz '^FuzzReadTSV$' -fuzztime 5s ./internal/profile/
go test -run '^$' -fuzz '^FuzzParseIgnoreDirective$' -fuzztime 5s ./internal/lint/
go test -run '^$' -fuzz '^FuzzParseAnnotation$' -fuzztime 5s ./internal/lint/
go test -run '^$' -fuzz '^FuzzKernelsMatchOracles$' -fuzztime 5s ./internal/paging/
go test -run '^$' -fuzz '^FuzzAdaptivePoliciesMatchOracles$' -fuzztime 5s ./internal/paging/
go test -run '^$' -fuzz '^FuzzKernelHitMatchesContainsThenAccess$' -fuzztime 5s ./internal/paging/
go test -run '^$' -fuzz '^FuzzParallelMatchesSerial$' -fuzztime 5s ./internal/paging/
go test -run '^$' -fuzz '^FuzzExecMatchesDivisionExecutor$' -fuzztime 5s ./internal/regular/
go test -run '^$' -fuzz '^FuzzSmoothingSourcesMatchEager$' -fuzztime 5s ./internal/smoothing/
go test -run '^$' -fuzz '^FuzzShardRouting$' -fuzztime 5s ./internal/service/
go test -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime 5s ./internal/jobs/

echo "CI OK"
