// multicore plays out the paper's motivating scenario end to end: several
// processes share a cache under a winner-take-all allocator with periodic
// flushes (the residency-imbalance story the introduction cites). The
// simulator produces each process's raw allocation profile m(t); the
// inner-square reduction turns it into a square profile; and we measure
// how MM-Scan-shaped and MM-InPlace-shaped computations fare on it — plus
// what shuffling the squares (the paper's smoothing) does.
package main

import (
	"fmt"
	"log"

	"repro/internal/adaptivity"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/sharedcache"
	"repro/internal/smoothing"
	"repro/internal/xrand"
)

func main() {
	rng := xrand.New(7)
	n := profile.Pow(4, 6) // a 4096-block computation per process

	// Three tenants on a 2048-block shared cache; the "batch" job arrives
	// late and departs early, as batch jobs do.
	cfg := sharedcache.Config{
		CacheBlocks:  2048,
		Horizon:      1 << 21,
		Policy:       sharedcache.WinnerTakeAll,
		FlushPeriod:  8192,
		DemandJitter: 2,
		Processes: []sharedcache.Process{
			{Name: "service-a", Arrive: 0, Depart: 1 << 21, Demand: 1024},
			{Name: "service-b", Arrive: 0, Depart: 1 << 21, Demand: 768},
			{Name: "batch", Arrive: 1 << 19, Depart: 1 << 20, Demand: 2048},
		},
	}
	allocs, err := sharedcache.Simulate(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("shared cache: %d blocks, policy %v, flush every %d I/Os\n\n",
		cfg.CacheBlocks, cfg.Policy, cfg.FlushPeriod)

	for _, a := range allocs {
		sq, err := profile.Squarize(a.M)
		if err != nil {
			log.Fatal(err)
		}
		scan, err := adaptivity.GapOnProfile(regular.MMScanSpec, n, sq)
		if err != nil {
			log.Fatal(err)
		}
		// MM-InPlace (c = 0) needs the ground-truth trace backend: its boxes
		// carry budget past the (absent) scans.
		src, err := profile.NewSliceSource(sq)
		if err != nil {
			log.Fatal(err)
		}
		inp, err := adaptivity.MeasureTracePolicy(regular.MMInPlaceSpec, n, paging.SquareReplayName, src, 0)
		if err != nil {
			log.Fatal(err)
		}
		// And the smoothed run: same squares, shuffled.
		shuf := smoothing.Shuffle(sq, rng)
		scanShuf, err := adaptivity.GapOnProfile(regular.MMScanSpec, n, shuf)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %6d squares (max %4d): MM-Scan gap %5.2f | MM-InPlace gap %5.2f | MM-Scan on shuffled squares %5.2f\n",
			a.Process.Name, sq.Len(), sq.MaxBox(), scan.Gap(), inp.Gap(), scanShuf.Gap())
	}

	fmt.Println("\ncontention-shaped profiles are nowhere near the adversarial construction:")
	fmt.Println("both algorithms stay within a small constant of optimal, and shuffling")
	fmt.Println("changes little — the log gap needs the profile to track the recursion.")
}
