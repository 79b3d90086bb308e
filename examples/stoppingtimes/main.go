// stoppingtimes tours the machinery behind the paper's main proof: the
// expected number of boxes f(n) an (8,4,1)-regular algorithm needs under
// i.i.d. box sizes, its scan-free sibling f'(n), and Lemma 3's pretty
// identity q = p = Pr[|□| >= n]·f(n/4).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/adaptivity"
	"repro/internal/engine"
	"repro/internal/regular"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the example's report to w.
func run(w io.Writer) error {
	spec := regular.MMScanSpec
	dist, err := xrand.NewTwoPoint(4, 1024, 0.03)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Σ = %s, algorithm %v\n\n", dist.Name(), spec)

	fmt.Fprintln(w, "stopping times (Monte Carlo, 4000 trials):")
	fmt.Fprintf(w, "%8s %12s %12s %14s\n", "n", "f(n)", "f'(n)", "f·m_n/n^1.5")
	for _, n := range []int64{16, 64, 256, 1024} {
		st, err := adaptivity.EstimateStoppingTimes(engine.NewGroup(), spec, n, dist, 1, 4000)
		if err != nil {
			return err
		}
		mn := dist.MeanBoundedPow(n, spec.Exponent())
		norm := st.F * mn / spec.Potential(n)
		fmt.Fprintf(w, "%8d %12.2f %12.2f %14.3f\n", n, st.F, st.FPrime, norm)
	}
	fmt.Fprintln(w, "\nEquation 3: the right column bounded ⇔ cache-adaptive in expectation.")

	fmt.Fprintln(w, "\nLemma 3 at n = 256:")
	res, err := adaptivity.CheckLemma3(engine.NewGroup(), spec, 256, dist, 2, 6000)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  f(n/4)                 = %.3f\n", res.FChild)
	fmt.Fprintf(w, "  p = Pr[|□|>=n]·f(n/4)  = %.3f\n", res.P)
	fmt.Fprintf(w, "  q (measured)           = %.3f ± %.3f\n", res.Q, res.QSE)
	fmt.Fprintf(w, "  f'(n) formula          = %.3f\n", res.SubBoxesFormula)
	fmt.Fprintf(w, "  f'(n) measured         = %.3f\n", res.SubBoxesMeasured)
	fmt.Fprintln(w, "\nq = p exactly (the martingale argument), and the geometric-series")
	fmt.Fprintln(w, "formula Σ (1-p)^{i-1} f(n/4) predicts f' to within sampling noise.")
	return nil
}
