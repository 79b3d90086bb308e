// worstcase reconstructs Section 3 of the paper: what a bad memory profile
// for MM-Scan looks like, why it costs a log factor, and how MM-InPlace —
// the (8,4,0) variant — sails through the very same profile.
package main

import (
	"fmt"
	"log"

	"repro/internal/adaptivity"
	"repro/internal/matrix"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/trace"
)

func main() {
	// Part 1: the recursive structure of M_{8,4}(n) (Figure 1). The profile
	// for a problem of size n is eight copies of the profile for n/4
	// followed by one box of size n: large cache arrives exactly when
	// MM-Scan is doing a scan and cannot exploit it.
	fmt.Println("Figure 1: box-size histogram of M_{8,4}(4^k)")
	for k := 2; k <= 6; k++ {
		n := profile.Pow(4, k)
		wc, err := profile.WorstCase(8, 4, n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  k=%d: %d boxes, histogram %v\n", k, wc.Len(), wc.SizeHistogram())
	}

	// Part 2: the log gap. MM-Scan's progress criterion on M_{8,4}(n) is
	// exactly log_4(n)+1 — each level of the recursion wastes one n^{3/2}
	// of potential on a scan.
	fmt.Println("\nTheorem 2: MM-Scan's gap on its worst-case profile")
	spec := regular.MMScanSpec
	for k := 2; k <= 7; k++ {
		n := profile.Pow(4, k)
		wc, err := profile.WorstCase(8, 4, n)
		if err != nil {
			log.Fatal(err)
		}
		res, err := adaptivity.GapOnProfile(spec, n, wc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  n=4^%d: gap %.2f (= log_4 n + 1)\n", k, res.Gap())
	}

	// Part 3: the same profile, two real algorithms. Block traces of actual
	// matrix multiplications replayed against the square-semantics cache:
	// MM-Scan completes exactly one multiply, MM-InPlace completes
	// Ω(log(N/B)) of them.
	fmt.Println("\nMM-Scan vs MM-InPlace: multiplies completed within the profile (B = 8 words/block)")
	const bw = 8
	for _, dim := range []int{32, 64, 128, 256} {
		wc, err := matrix.WorstCaseProfile(dim, bw)
		if err != nil {
			log.Fatal(err)
		}
		// 16 back-to-back multiplies, each over fresh blocks, against the
		// profile's boxes; the served prefix says how many completed.
		multiplies := func(tr *trace.Trace) int {
			src, err := profile.NewSliceSource(wc)
			if err != nil {
				log.Fatal(err)
			}
			served, err := paging.ServedEmitRepeat(tr.Emit, tr.MaxBlock(), src, int64(wc.Len()), 16, tr.MaxBlock()+1)
			if err != nil {
				log.Fatal(err)
			}
			return int(served) / tr.Len()
		}
		scanTr, err := matrix.TraceMulScan(dim, bw)
		if err != nil {
			log.Fatal(err)
		}
		inpTr, err := matrix.TraceMulInPlace(dim, bw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  dim=%4d: MM-Scan %d, MM-InPlace %d\n", dim, multiplies(scanTr), multiplies(inpTr))
	}
}
