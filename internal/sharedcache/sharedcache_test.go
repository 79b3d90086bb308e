package sharedcache

import (
	"testing"
	"testing/quick"

	"repro/internal/profile"
	"repro/internal/xrand"
)

func baseConfig() Config {
	return Config{
		CacheBlocks: 1024,
		Horizon:     2000,
		Policy:      EvenSplit,
		FlushPeriod: 500,
		Processes: []Process{
			{Name: "a", Arrive: 0, Depart: 2000, Demand: 400},
			{Name: "b", Arrive: 300, Depart: 1500, Demand: 700},
			{Name: "c", Arrive: 800, Depart: 2000, Demand: 100},
		},
	}
}

func TestValidation(t *testing.T) {
	bad := baseConfig()
	bad.CacheBlocks = 0
	if _, err := Simulate(bad, xrand.New(1)); err == nil {
		t.Error("cache 0 accepted")
	}
	bad = baseConfig()
	bad.Processes = nil
	if _, err := Simulate(bad, xrand.New(1)); err == nil {
		t.Error("no processes accepted")
	}
	bad = baseConfig()
	bad.Processes[0].Depart = bad.Processes[0].Arrive
	if _, err := Simulate(bad, xrand.New(1)); err == nil {
		t.Error("empty lifetime accepted")
	}
	bad = baseConfig()
	bad.Policy = WinnerTakeAll
	bad.FlushPeriod = 0
	if _, err := Simulate(bad, xrand.New(1)); err == nil {
		t.Error("WTA without flush period accepted")
	}
}

func checkInvariants(t *testing.T, cfg Config, allocs []Allocation) {
	t.Helper()
	// Reconstruct per-step totals.
	totals := make([]int64, cfg.Horizon)
	for _, a := range allocs {
		if len(a.M) != a.Process.Depart-a.Process.Arrive && a.Process.Depart <= cfg.Horizon {
			t.Fatalf("%s: %d samples for lifetime [%d,%d)", a.Process.Name, len(a.M), a.Process.Arrive, a.Process.Depart)
		}
		for i, m := range a.M {
			if m < 1 {
				t.Fatalf("%s: allocation %d at step %d", a.Process.Name, m, a.Process.Arrive+i)
			}
			totals[a.Process.Arrive+i] += m
		}
	}
	for step, total := range totals {
		if total > cfg.CacheBlocks {
			t.Fatalf("step %d: allocations total %d > cache %d", step, total, cfg.CacheBlocks)
		}
	}
}

func TestInvariantsAllPolicies(t *testing.T) {
	for _, pol := range []Policy{EvenSplit, Proportional, WinnerTakeAll} {
		cfg := baseConfig()
		cfg.Policy = pol
		cfg.DemandJitter = 3
		allocs, err := Simulate(cfg, xrand.New(7))
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		checkInvariants(t, cfg, allocs)
	}
}

func TestEvenSplitShares(t *testing.T) {
	cfg := baseConfig()
	allocs, err := Simulate(cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Before b arrives, a has the whole cache; while a and b share, each
	// has half.
	a := allocs[0]
	if a.M[0] != 1024 {
		t.Errorf("solo allocation %d, want 1024", a.M[0])
	}
	if a.M[400] != 512 {
		t.Errorf("two-way allocation %d, want 512", a.M[400])
	}
	if a.M[900] != 341 {
		t.Errorf("three-way allocation %d, want 341", a.M[900])
	}
}

func TestWinnerTakeAllSawtooth(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = WinnerTakeAll
	cfg.FlushPeriod = 200
	allocs, err := Simulate(cfg, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// The winner's allocation must hit (or approach) the full cache within
	// each flush period and crash afterwards: check the max over a period
	// is large and the value right after a flush boundary is small.
	b := allocs[1] // highest demand once active
	var peak int64
	for _, m := range b.M[:200] {
		if m > peak {
			peak = m
		}
	}
	if peak < cfg.CacheBlocks/2 {
		t.Errorf("winner never grew: peak %d", peak)
	}
	// Immediately after a flush (absolute step 1000 => index 700 in b's
	// window), the share is near the floor.
	if b.M[700] > cfg.CacheBlocks/4 {
		t.Errorf("allocation %d right after flush, want small", b.M[700])
	}
}

func TestProportionalFollowsDemand(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = Proportional
	allocs, err := Simulate(cfg, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// While a (demand 400) and b (demand 700) are both active (and c is
	// not), b holds more.
	aAt, bAt := allocs[0].M[400], allocs[1].M[100]
	if bAt <= aAt {
		t.Errorf("proportional: b=%d not above a=%d", bAt, aAt)
	}
}

// The generated profiles feed the square reduction without error.
func TestProfilesSquarize(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = WinnerTakeAll
	allocs, err := Simulate(cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range allocs {
		p, err := profile.Squarize(a.M)
		if err != nil {
			t.Fatalf("%s: %v", a.Process.Name, err)
		}
		if p.Duration() != int64(len(a.M)) {
			t.Errorf("%s: square profile covers %d of %d steps", a.Process.Name, p.Duration(), len(a.M))
		}
	}
}

// Property: invariants hold for random configurations.
func TestInvariantsProperty(t *testing.T) {
	check := func(seed uint32, cacheRaw uint16, polRaw uint8) bool {
		src := xrand.New(uint64(seed))
		cache := int64(cacheRaw)%2000 + 10
		cfg := Config{
			CacheBlocks:  cache,
			Horizon:      300,
			Policy:       Policy(polRaw % 3),
			FlushPeriod:  50,
			DemandJitter: 2,
		}
		nProcs := 1 + src.Intn(5)
		for i := 0; i < nProcs; i++ {
			arrive := src.Intn(250)
			cfg.Processes = append(cfg.Processes, Process{
				Name:   "p",
				Arrive: arrive,
				Depart: arrive + 1 + src.Intn(300-arrive),
				Demand: 1 + src.Int63n(cache),
			})
		}
		allocs, err := Simulate(cfg, src)
		if err != nil {
			return false
		}
		totals := make([]int64, cfg.Horizon)
		for _, a := range allocs {
			for i, m := range a.M {
				if m < 1 {
					return false
				}
				totals[a.Process.Arrive+i] += m
			}
		}
		for _, total := range totals {
			if total > cfg.CacheBlocks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateAllocsIndependentOfHorizon pins Simulate's allocations to
// its setup: the per-step scratch is reused and every allocation slice is
// sized up front to the process's steps inside the horizon, so a run ten
// times longer makes the same number of allocations, under every policy.
// The horizons keep every slice a small-object allocation (< 32 KB), which
// the runtime counts exactly.
func TestSimulateAllocsIndependentOfHorizon(t *testing.T) {
	scaled := func(policy Policy, horizon int) Config {
		cfg := baseConfig()
		cfg.Policy = policy
		cfg.DemandJitter = 3
		cfg.Horizon = horizon
		for i := range cfg.Processes {
			p := &cfg.Processes[i]
			p.Arrive = p.Arrive * horizon / 2000
			p.Depart = p.Depart * horizon / 2000
		}
		// One process outlives the horizon: its allocation stops there.
		cfg.Processes[1].Depart = 2 * horizon
		return cfg
	}
	for _, policy := range []Policy{EvenSplit, Proportional, WinnerTakeAll} {
		var allocs [2]float64
		for i, horizon := range []int{300, 3000} {
			cfg := scaled(policy, horizon)
			rng := xrand.New(3)
			allocs[i] = testing.AllocsPerRun(5, func() {
				out, err := Simulate(cfg, rng)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range out {
					if want := min(a.Process.Depart, horizon) - a.Process.Arrive; len(a.M) != want || cap(a.M) != want {
						t.Fatalf("%v: %s has len %d cap %d, want %d", policy, a.Process.Name, len(a.M), cap(a.M), want)
					}
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%v: %v allocations at horizon 300, %v at 3000", policy, allocs[0], allocs[1])
		}
	}
}
