// Command profilegen generates and inspects memory profiles.
//
// Usage:
//
//	profilegen -type worstcase -a 8 -b 4 -n 1024            # Figure 1's profile
//	profilegen -type worstcase -a 8 -b 4 -n 1024 -render    # ASCII skyline
//	profilegen -type shuffled -a 8 -b 4 -n 1024 -seed 7     # randomly shuffled
//	profilegen -type orderperturbed -a 8 -b 4 -n 1024       # the S4 smoothing
//	profilegen -type sawtooth -min 16 -max 512 -period 600 -len 3000
//	profilegen -type walk -min 16 -max 512 -step 8 -len 3000 -seed 7
//
// Raw (non-square) profiles are squared with the inner-square reduction
// before printing. Output is one box size per line (TSV: index, size),
// plus a summary on stderr; -render draws the profile instead.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/profile"
	"repro/internal/smoothing"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "profilegen:", err)
		os.Exit(1)
	}
}

// run is the whole command behind main: flags in, the profile on stdout
// and its summary (and any flag diagnostics) on stderr. Taking all three
// explicitly lets the tests drive it in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("profilegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		typ    = fs.String("type", "worstcase", "worstcase | shuffled | orderperturbed | sawtooth | walk | constant")
		a      = fs.Int64("a", 8, "recursion fan-out a")
		b      = fs.Int64("b", 4, "shrink factor b")
		n      = fs.Int64("n", 1024, "problem size (power of b) for recursive profiles")
		minM   = fs.Int64("min", 16, "min size (raw profiles)")
		maxM   = fs.Int64("max", 512, "max size (raw profiles)")
		period = fs.Int("period", 600, "sawtooth period (I/Os)")
		step   = fs.Int64("step", 8, "random-walk step")
		length = fs.Int("len", 3000, "raw profile length (I/Os)")
		seed   = fs.Uint64("seed", 1, "seed for randomised profiles")
		render = fs.Bool("render", false, "draw an ASCII skyline instead of printing boxes")
		limit  = fs.Int("limit", 1<<20, "refuse to print profiles with more boxes than this")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rng := xrand.New(*seed)
	var p *profile.SquareProfile
	var raw profile.Raw // set by the raw types, squared below
	var err error
	switch *typ {
	case "worstcase":
		p, err = profile.WorstCase(*a, *b, *n)
	case "shuffled":
		p, err = profile.WorstCase(*a, *b, *n)
		if err == nil {
			p = smoothing.Shuffle(p, rng)
		}
	case "orderperturbed":
		p, err = smoothing.OrderPerturbed(*a, *b, *n, rng)
	case "sawtooth":
		raw, err = profile.Sawtooth(*minM, *maxM, *period, *length)
	case "walk":
		raw, err = profile.RandomWalk(rng, (*minM+*maxM)/2, *minM, *maxM, *step, *length)
	case "constant":
		raw, err = profile.Constant(*maxM, *length)
	default:
		return fmt.Errorf("unknown profile type %q", *typ)
	}
	if err == nil && raw != nil {
		p, err = profile.SquarizeRaw(raw)
	}
	if err != nil {
		return err
	}
	if p.Len() > *limit {
		return fmt.Errorf("profile has %d boxes; raise -limit to print it", p.Len())
	}

	fmt.Fprintf(stderr, "%s  histogram=%v\n", p, compactHistogram(p))
	if *render {
		return renderSkyline(stdout, p, 100, 20)
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	for i := 0; i < p.Len(); i++ {
		fmt.Fprintf(w, "%d\t%d\n", i, p.Box(i))
	}
	return nil
}

func compactHistogram(p *profile.SquareProfile) string {
	h := p.SizeHistogram()
	sizes := make([]int64, 0, len(h))
	for s := range h {
		sizes = append(sizes, s) //lint:ignore maporder sizes is sorted immediately below
	}
	slices.Sort(sizes)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, s := range sizes {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d:%d", s, h[s])
	}
	sb.WriteByte('}')
	return sb.String()
}

// renderSkyline draws the profile as an ASCII step function: time on the
// x-axis (compressed into cols columns), box height on the y-axis.
func renderSkyline(w io.Writer, p *profile.SquareProfile, cols, rows int) error {
	total := p.Duration()
	if total == 0 {
		return fmt.Errorf("empty profile")
	}
	maxBox := p.MaxBox()
	// Height of the profile at each of the cols sample points.
	heights := make([]int64, cols)
	bi := 0
	var consumed int64
	for c := 0; c < cols; c++ {
		target := total * int64(c) / int64(cols)
		for bi < p.Len() && consumed+p.Box(bi) <= target {
			consumed += p.Box(bi)
			bi++
		}
		if bi < p.Len() {
			heights[c] = p.Box(bi)
		}
	}
	out := bufio.NewWriter(w)
	defer out.Flush()
	for r := rows; r >= 1; r-- {
		threshold := maxBox * int64(r) / int64(rows)
		for c := 0; c < cols; c++ {
			if heights[c] >= threshold {
				out.WriteByte('#')
			} else {
				out.WriteByte(' ')
			}
		}
		out.WriteByte('\n')
	}
	fmt.Fprintf(out, "%s\n", strings.Repeat("-", cols))
	fmt.Fprintf(out, "duration %d I/Os, max box %d, %d boxes\n", total, maxBox, p.Len())
	return nil
}
