// Package sharedcache simulates the scenario the paper's introduction
// motivates: several processes sharing one cache, each seeing its
// allocation fluctuate as the others start, stop, and change their
// demands. The simulator produces the raw per-process memory profiles
// m_p(t) that the inner-square reduction (profile.Squarize) turns into the
// square profiles the cache-adaptive machinery consumes.
//
// Three allocation policies are modelled:
//
//   - EvenSplit: the cache is divided equally among the processes active
//     at each step — the baseline partitioning of Intel CAT-style manual
//     control.
//   - Proportional: each active process gets a share proportional to its
//     current demand — an idealised demand-aware allocator.
//   - WinnerTakeAll: one process's share grows toward the whole cache (the
//     residency imbalance of Dice et al. the paper cites) until a periodic
//     flush resets everyone to the floor — the "slowly grow, abruptly
//     crash" profile of the introduction.
package sharedcache

import (
	"fmt"

	"repro/internal/xrand"
)

// Policy selects the allocation rule.
type Policy int

// Policies.
const (
	EvenSplit Policy = iota
	Proportional
	WinnerTakeAll
)

func (p Policy) String() string {
	switch p {
	case EvenSplit:
		return "even-split"
	case Proportional:
		return "proportional"
	case WinnerTakeAll:
		return "winner-take-all"
	default:
		return "unknown"
	}
}

// Process describes one tenant of the shared cache.
type Process struct {
	Name   string
	Arrive int // first active step (inclusive)
	Depart int // last active step (exclusive); <= horizon
	// Demand is the process's desired cache in blocks; under Proportional
	// it weights the split. Must be >= 1.
	Demand int64
}

// Config describes a simulation.
type Config struct {
	CacheBlocks int64 // total shared cache, in blocks
	Horizon     int   // steps to simulate
	Policy      Policy
	// FlushPeriod applies to WinnerTakeAll: every FlushPeriod steps the
	// winner's accumulated share is flushed back to the floor.
	FlushPeriod int
	// DemandJitter, if positive, multiplies each process's demand each step
	// by a uniform factor in [1/DemandJitter, DemandJitter] (resampled per
	// step), modelling phase changes.
	DemandJitter int64
	Processes    []Process
}

func (c *Config) validate() error {
	if c.CacheBlocks < 1 {
		return fmt.Errorf("sharedcache: cache %d blocks", c.CacheBlocks)
	}
	if c.Horizon < 1 {
		return fmt.Errorf("sharedcache: horizon %d", c.Horizon)
	}
	if len(c.Processes) == 0 {
		return fmt.Errorf("sharedcache: no processes")
	}
	if c.Policy == WinnerTakeAll && c.FlushPeriod < 1 {
		return fmt.Errorf("sharedcache: winner-take-all needs FlushPeriod >= 1")
	}
	for i, p := range c.Processes {
		if p.Demand < 1 {
			return fmt.Errorf("sharedcache: process %d demand %d", i, p.Demand)
		}
		if p.Arrive < 0 || p.Depart <= p.Arrive {
			return fmt.Errorf("sharedcache: process %d lifetime [%d,%d) invalid", i, p.Arrive, p.Depart)
		}
	}
	return nil
}

// Allocation holds one process's view of the simulation: its allocation in
// blocks at each step of its active window.
type Allocation struct {
	Process Process
	// M[t] is the allocation at absolute step Process.Arrive + t.
	M []int64
}

// Simulate runs the allocator and returns one Allocation per process (in
// input order). Invariants (tested): at every step the active allocations
// sum to at most CacheBlocks and every active process holds >= 1 block.
func Simulate(cfg Config, rng *xrand.Source) ([]Allocation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	out := make([]Allocation, len(cfg.Processes))
	for i, p := range cfg.Processes {
		out[i] = Allocation{Process: p}
		if life := min(p.Depart, cfg.Horizon) - p.Arrive; life > 0 {
			out[i].M = make([]int64, 0, life)
		}
	}
	// Per-step scratch, sized for every process at once and reused each
	// step, so a run allocates the same whatever its horizon.
	active := make([]int, 0, len(cfg.Processes))
	demandBuf := make([]int64, len(cfg.Processes))
	allocBuf := make([]int64, len(cfg.Processes))
	// Winner-take-all state: the winner's current share fraction numerator.
	winnerShare := int64(0)
	for t := 0; t < cfg.Horizon; t++ {
		active = active[:0]
		for i, p := range cfg.Processes {
			if t >= p.Arrive && t < p.Depart {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			continue
		}
		demands := demandBuf[:len(active)]
		var totalDemand int64
		for j, i := range active {
			d := cfg.Processes[i].Demand
			if cfg.DemandJitter > 1 {
				num := 1 + rng.Int63n(cfg.DemandJitter)
				den := 1 + rng.Int63n(cfg.DemandJitter)
				d = max64(1, d*num/den)
			}
			demands[j] = d
			totalDemand += d
		}

		allocs := allocBuf[:len(active)]
		switch cfg.Policy {
		case EvenSplit:
			share := cfg.CacheBlocks / int64(len(active))
			for j := range allocs {
				allocs[j] = max64(1, share)
			}
		case Proportional:
			for j := range allocs {
				allocs[j] = max64(1, cfg.CacheBlocks*demands[j]/totalDemand)
			}
		case WinnerTakeAll:
			// The winner (process with the largest jittered demand this
			// step) grows by one share-step per step; a flush resets it.
			if t%cfg.FlushPeriod == 0 {
				winnerShare = 0
			}
			if winnerShare < cfg.CacheBlocks {
				winnerShare += max64(1, cfg.CacheBlocks/int64(cfg.FlushPeriod))
			}
			if winnerShare > cfg.CacheBlocks {
				winnerShare = cfg.CacheBlocks
			}
			wj := 0
			for j := range demands {
				if demands[j] > demands[wj] {
					wj = j
				}
			}
			floor := max64(1, (cfg.CacheBlocks-winnerShare)/int64(len(active)))
			for j := range allocs {
				if j == wj {
					allocs[j] = max64(1, winnerShare)
				} else {
					allocs[j] = floor
				}
			}
		default:
			return nil, fmt.Errorf("sharedcache: unknown policy %d", cfg.Policy)
		}

		// Clamp the total to the cache size, trimming the largest holders
		// first (the floor guarantees stay intact because trimming stops at
		// 1 block).
		trimToBudget(allocs, cfg.CacheBlocks)
		for j, i := range active {
			out[i].M = append(out[i].M, allocs[j])
		}
	}
	return out, nil
}

// trimToBudget reduces allocations until their sum fits the budget,
// repeatedly decrementing the current maximum (never below 1).
func trimToBudget(allocs []int64, budget int64) {
	var sum int64
	for _, a := range allocs {
		sum += a
	}
	for sum > budget {
		// Find the max and shave the overshoot off it (bounded below).
		mi := 0
		for j := range allocs {
			if allocs[j] > allocs[mi] {
				mi = j
			}
		}
		if allocs[mi] <= 1 {
			return // cannot trim further; budget < len(allocs) blocks
		}
		cut := sum - budget
		if cut > allocs[mi]-1 {
			cut = allocs[mi] - 1
		}
		allocs[mi] -= cut
		sum -= cut
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
