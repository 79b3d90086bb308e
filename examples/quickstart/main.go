// Quickstart: the paper's story in thirty lines.
//
// We run the canonical (8,4,1)-regular algorithm (MM-Scan's shape) on a
// problem of n = 4^6 blocks, twice: against its adversarial worst-case
// memory profile M_{8,4}(n), and against the same boxes randomly shuffled.
// The "gap" printed is Σ min(n,|□|)^{3/2} / n^{3/2} — the cache-adaptive
// efficiency criterion: ~1 is perfect, log_4(n)+1 is the worst case.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/adaptivity"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/smoothing"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the example's report to w.
func run(w io.Writer) error {
	spec := regular.MMScanSpec // (8,4,1): a > b, c = 1 — in the log gap
	n := profile.Pow(4, 6)     // problem size in blocks

	worst, err := profile.WorstCase(8, 4, n)
	if err != nil {
		return err
	}
	onWorst, err := adaptivity.GapOnProfile(spec, n, worst)
	if err != nil {
		return err
	}

	shuffled := smoothing.Shuffle(worst, xrand.New(42))
	onShuffled, err := adaptivity.GapOnProfile(spec, n, shuffled)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "problem size n = %d blocks (%v)\n", n, spec)
	fmt.Fprintf(w, "adversarial profile: gap = %.2f (theory: log_4 n + 1 = %d)\n",
		onWorst.Gap(), profile.Log(n, 4)+1)
	fmt.Fprintf(w, "same boxes, shuffled: gap = %.2f (theory: O(1) in expectation)\n",
		onShuffled.Gap())
	return nil
}
