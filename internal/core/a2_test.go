package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// a2SlicePath is A2 computed the materialized way: the trace built, each
// raw profile collected into a horizon-length slice, the LRU indexing it
// by miss count and the reduction and square replay reading the slices.
// It is the oracle for runA2's streams.
func a2SlicePath(seed uint64) (*Table, error) {
	spec := regular.MMScanSpec
	n := profile.Pow(4, 6)
	tr, err := regular.SyntheticTrace(spec, n)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "A2",
		Title:  "Square-profile reduction: raw-profile LRU vs inner-square square-cache (canonical (8,4,1) trace, n=4^6)",
		Header: []string{"raw profile", "LRU misses (raw)", "square boxes", "square-cache IOs", "IO ratio"},
	}
	const horizon = 1 << 21
	saw, err := profile.Sawtooth(16, 1024, 4096, horizon)
	if err != nil {
		return nil, err
	}
	walk, err := profile.RandomWalk(xrand.New(seed^0xa2), 256, 16, 1024, 32, horizon)
	if err != nil {
		return nil, err
	}
	con, err := profile.Constant(256, horizon)
	if err != nil {
		return nil, err
	}
	names := []string{"sawtooth[16..1024]", "walk[16..1024]", "constant[256]"}
	var worstRatio float64
	for i, raw := range []profile.Raw{saw, walk, con} {
		m := profile.Collect(raw)
		lruMisses, err := lruOnSlice(tr, m)
		if err != nil {
			return nil, err
		}
		sq, err := profile.Squarize(m)
		if err != nil {
			return nil, err
		}
		src, err := profile.NewSliceSource(sq)
		if err != nil {
			return nil, err
		}
		st, err := paging.PolicyRun(paging.SquareReplayName, tr, src, 0)
		if err != nil {
			return nil, err
		}
		sqIOs := paging.TotalIOs(st)
		ratio := float64(sqIOs) / float64(lruMisses)
		worstRatio = max(worstRatio, ratio, 1/ratio)
		t.AddRow(names[i], lruMisses, sq.Len(), sqIOs, ratio)
	}
	t.Note = fmt.Sprintf("worst-case disagreement factor %.2f — the inner-square reduction costs within a small constant of the raw dynamic-capacity LRU, supporting the model's w.l.o.g. square-profile convention.", worstRatio)
	return t, nil
}

// lruOnSlice replays tr through an LRU at capacity m[min(misses, len-1)].
func lruOnSlice(tr *trace.Trace, m []int64) (int64, error) {
	l, err := paging.NewLRU(m[0])
	if err != nil {
		return 0, err
	}
	for i := 0; i < tr.Len(); i++ {
		if l.Access(tr.Block(i)) {
			continue
		}
		if err := l.SetCapacity(m[min(int(l.Misses()), len(m)-1)]); err != nil {
			return 0, err
		}
	}
	return l.Misses(), nil
}

// TestA2MatchesSlicePath checks A2's streamed table against the
// materialized computation at several seeds (the seed moves the walk).
func TestA2MatchesSlicePath(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, DefaultConfig().Seed}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		tb, err := runA2(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, err := a2SlicePath(seed)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tb.FormatTSV(), want.FormatTSV(); got != want {
			t.Errorf("seed %d: streamed table\n%s\nmaterialized table\n%s", seed, got, want)
		}
	}
}

// TestA2AllocationBound pins A2's streaming: neither the 2^21-step raw
// profiles nor the trace are materialized, so a run allocates well under
// the ~73 MB the materialized computation took.
func TestA2AllocationBound(t *testing.T) {
	const bound = 8 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := runA2(Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("A2 allocated %.1f MB, want <= %.0f MB", float64(got)/(1<<20), float64(bound)/(1<<20))
	}
}
