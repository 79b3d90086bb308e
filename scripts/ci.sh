#!/bin/sh
# CI gate: formatting, vet, the cadaptivelint determinism checks, build, the
# full test suite (shuffled), then a race-detector pass over the
# concurrency-sensitive packages (the engine and everything that fans out on
# it), including the worker-count determinism test. Run from the repo root:
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

echo "== go test -race (short) =="
gate 'TestMap|TestNested|TestShared|TestGroup|TestTrialsDeterministicAcrossWorkers|TestRunAllDeterministicAcrossWorkers' \
    -race -short \
    ./internal/engine/ \
    ./internal/adaptivity/ \
    ./internal/core/

echo "== go test -race (service + paging properties) =="
gate 'TestService|TestCache|TestLRU|TestFIFO|TestOPT|TestHitsPlusMisses|TestShrink|TestClient' \
    -race -short \
    ./internal/service/ \
    ./internal/paging/

echo "== go test -race (fault injection) =="
go test -race -short ./internal/fault/

echo "== go test -race (sharded result cache) =="
# The sharded cache under concurrency: singleflight per shard, the
# stale-while-revalidate background refresh, the differential replay against
# the single-mutex oracle, and the eviction-policy adapters.
gate 'TestCacheDifferential|TestCacheBytesBound|TestCacheTTL|TestCacheSWR|TestCacheShardRouting|TestCacheDisabled|TestServiceTablesIdenticalAcrossShardCounts' \
    -race -short -count=1 \
    ./internal/service/

echo "== go test -race (policy registry + adaptive kernels) =="
# The ReplacementPolicy registry end to end: ARC/2Q differential oracles,
# the by-name box replay (PolicyStream, Replay/PolicyRun and the opt box
# replay), the registry-name plumbing through MeasureTracePolicy, and the
# reference conformance suite over every registered policy.
gate 'TestARC|Test2Q|TestTwoQ|TestPolicy|TestReplayOPT|TestOPTRunBoxes|TestMeasureTracePolicy' \
    -race -short -count=1 \
    ./internal/paging/ \
    ./internal/adaptivity/

echo "== go test -race (square replay) =="
# The sharded square replay the benchmark's shard probe measures
# (plan/execute determinism at explicit shard and worker counts, the
# ledger-merge equivalence), race-checked since shards share the engine
# pool; beside it the serial repeated replay (ServedEmitRepeat), the
# finisher early-stop regressions and the square MeasureTrace replays.
gate 'TestSquareRunParallel|TestSquareEmitParallel|FuzzParallelMatchesSerial|TestServedRepeat|TestServedEmitRepeat|TestSquareFinisher|TestReplayRangeHalts|TestReplayRepeatHalts|TestDefaultShards|TestMeasureTrace' \
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
# retry/poison accounting, journal replay, manager kill/resume, and the
# service-level jobs API including resume across server instances.
gate 'TestJob|TestJournal|TestSpec|TestRetry|TestTransient|TestCancel|TestSubmit|TestWeighted|TestKillRestartResume|TestResume|TestRestore|TestSchedulerFaults|TestServiceJobs|TestServiceHealthz' \
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
go test -run '^$' -fuzz '^FuzzParallelMatchesSerial$' -fuzztime 5s ./internal/paging/
go test -run '^$' -fuzz '^FuzzShardRouting$' -fuzztime 5s ./internal/service/
go test -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime 5s ./internal/jobs/

echo "CI OK"
