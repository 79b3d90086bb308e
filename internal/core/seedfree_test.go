package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// clearSeedFree empties the process-wide memo, so the next run computes
// every seed-free row again.
func clearSeedFree() {
	seedFreeMu.Lock()
	defer seedFreeMu.Unlock()
	clear(seedFreeVals)
}

// seedFreeRunners are the experiments with memoized rows.
var seedFreeRunners = []struct {
	id  string
	run func(Config) (*Table, error)
}{
	{"A2", runA2},
	{"A7", runA7},
}

// TestSeedFreeRowsMatchDirect: A2's and A7's tables served from a memo
// that another seed filled equal the tables with every row computed in
// the run itself, so a memoized row is the same at every seed and the
// seed-dependent rows are not memoized.
func TestSeedFreeRowsMatchDirect(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, DefaultConfig().Seed}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, r := range seedFreeRunners {
		for _, seed := range seeds {
			clearSeedFree()
			direct, err := r.run(Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			clearSeedFree()
			if _, err := r.run(Config{Seed: seed + 1000}); err != nil {
				t.Fatal(err)
			}
			memo, err := r.run(Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := memo.FormatTSV(), direct.FormatTSV(); got != want {
				t.Errorf("%s seed %d: through the memo\n%s\ncomputed directly\n%s", r.id, seed, got, want)
			}
		}
	}
}

// TestSeedFreeConcurrentRuns: eight goroutines run A2 and A7 at different
// seeds from a cold memo, racing on its keys, and each gets the table a
// serial run gives.
func TestSeedFreeConcurrentRuns(t *testing.T) {
	const runs = 8
	want := make([][]string, runs)
	for i := range want {
		for _, r := range seedFreeRunners {
			tb, err := r.run(Config{Seed: uint64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], tb.FormatTSV())
		}
	}
	clearSeedFree()
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Alternate the order so A2 and A7 fill their keys concurrently.
			for j := range seedFreeRunners {
				j = (i + j) % len(seedFreeRunners)
				r := seedFreeRunners[j]
				tb, err := r.run(Config{Seed: uint64(i + 1)})
				if err != nil {
					errs[i] = err
					return
				}
				if got := tb.FormatTSV(); got != want[i][j] {
					errs[i] = fmt.Errorf("%s seed %d: concurrent table\n%s\nserial table\n%s", r.id, i+1, got, want[i][j])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestSeedFreeStoresOnlySuccesses: a first call that fails returns its
// error and stores nothing, the next call computes and stores, and the
// call after that is served without computing.
func TestSeedFreeStoresOnlySuccesses(t *testing.T) {
	const key = "TestSeedFreeStoresOnlySuccesses"
	fail := errors.New("transient")
	calls := 0
	f := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, fail
		}
		return 42, nil
	}
	if _, err := seedFree(key, f); !errors.Is(err, fail) {
		t.Fatalf("first call: err = %v, want %v", err, fail)
	}
	for i := 0; i < 2; i++ {
		v, err := seedFree(key, f)
		if err != nil || v != 42 {
			t.Fatalf("call %d: (%d, %v), want (42, nil)", i+2, v, err)
		}
	}
	if calls != 2 {
		t.Errorf("f ran %d times, want 2 (the failure, then one success)", calls)
	}
}
