package core

import (
	"fmt"
	"testing"

	"repro/internal/adaptivity"
	"repro/internal/engine"
	"repro/internal/profile"
	"repro/internal/regular"
)

// TestE12SharedOPTMatchesPerCall checks E12's table, whose opt runs replay
// one shared recording per size, against the table built with every run
// going through MeasureTracePolicy, where each opt run records its own
// stream. Four engine workers make concurrent cells replay the same
// recording, so under -race it also checks that they only read it.
func TestE12SharedOPTMatchesPerCall(t *testing.T) {
	defer engine.SetSharedWorkers(0)
	engine.SetSharedWorkers(4)
	perCall := func(pol string, k int, src profile.Source) (adaptivity.RunResult, error) {
		return adaptivity.MeasureTracePolicy(regular.MMScanSpec, profile.Pow(4, k), pol, src, 0)
	}
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, DefaultConfig().Seed} {
		for _, maxK := range []int{4, 5} {
			t.Run(fmt.Sprintf("seed=%d/maxk=%d", seed, maxK), func(t *testing.T) {
				cfg := Config{Seed: seed, Trials: 3, MaxK: maxK}
				shared, err := runE12(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := e12Table(cfg, perCall)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := shared.FormatTSV(), want.FormatTSV(); got != want {
					t.Errorf("shared recordings\n%s\nper-call recordings\n%s", got, want)
				}
			})
		}
	}
}
