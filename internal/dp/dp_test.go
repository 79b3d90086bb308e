package dp

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/xrand"
)

func TestLCSKnown(t *testing.T) {
	cases := []struct {
		x, y string
		want int
	}{
		{"", "", 0},
		{"abc", "", 0},
		{"", "abc", 0},
		{"abcde", "ace", 3},
		{"abc", "abc", 3},
		{"abc", "def", 0},
		{"AGGTAB", "GXTXAYB", 4},
		{"aaaa", "aa", 2},
	}
	for _, tc := range cases {
		if got := LCSLength(tc.x, tc.y); got != tc.want {
			t.Errorf("LCS(%q,%q) = %d, want %d", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestEditDistanceKnown(t *testing.T) {
	cases := []struct {
		x, y string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
	}
	for _, tc := range cases {
		if got := EditDistance(tc.x, tc.y); got != tc.want {
			t.Errorf("edit(%q,%q) = %d, want %d", tc.x, tc.y, got, tc.want)
		}
	}
}

func randomString(src *xrand.Source, n int, alpha string) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alpha[src.Intn(len(alpha))])
	}
	return sb.String()
}

func TestRecursiveValidation(t *testing.T) {
	if _, err := LCSLengthRecursive("abc", "abcd"); err == nil {
		t.Error("unequal lengths accepted")
	}
	if _, err := LCSLengthRecursive("abc", "abd"); err == nil {
		t.Error("non-power length accepted")
	}
	if _, err := EditDistanceRecursive("", ""); err == nil {
		t.Error("empty accepted")
	}
}

func TestRecursiveMatchesClassic(t *testing.T) {
	src := xrand.New(17)
	for _, n := range []int{8, 16, 32, 64, 128} {
		for trial := 0; trial < 5; trial++ {
			x := randomString(src, n, "abcd")
			y := randomString(src, n, "abcd")
			wantLCS := LCSLength(x, y)
			gotLCS, err := LCSLengthRecursive(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if gotLCS != wantLCS {
				t.Errorf("n=%d: recursive LCS %d, classic %d (x=%q y=%q)", n, gotLCS, wantLCS, x, y)
			}
			wantED := EditDistance(x, y)
			gotED, err := EditDistanceRecursive(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if gotED != wantED {
				t.Errorf("n=%d: recursive edit %d, classic %d (x=%q y=%q)", n, gotED, wantED, x, y)
			}
		}
	}
}

// Property: recursive solvers agree with the classics on arbitrary seeds,
// and the classic invariants hold: LCS <= n, edit >= |len difference| (0
// here), LCS(x,x) = n, edit(x,x) = 0.
func TestDPProperties(t *testing.T) {
	check := func(seed uint32, sizeSel uint8) bool {
		n := []int{8, 16, 32}[int(sizeSel)%3]
		src := xrand.New(uint64(seed))
		x := randomString(src, n, "ab")
		y := randomString(src, n, "ab")
		l, err := LCSLengthRecursive(x, y)
		if err != nil || l != LCSLength(x, y) || l > n {
			return false
		}
		d, err := EditDistanceRecursive(x, y)
		if err != nil || d != EditDistance(x, y) {
			return false
		}
		// Duality for equal-length binary strings: d >= n - l... in fact
		// edit distance with substitutions satisfies d <= n - l + ... keep
		// the universally true bounds:
		if d < 0 || d > n {
			return false
		}
		if LCSLength(x, x) != n || EditDistance(x, x) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceLCSValidation(t *testing.T) {
	if _, err := TraceLCS(12, 4); err == nil {
		t.Error("non-power length accepted")
	}
	if _, err := TraceLCS(4, 4); err == nil {
		t.Error("length below base accepted")
	}
	if _, err := TraceLCS(64, 0); err == nil {
		t.Error("block size 0 accepted")
	}
}

func TestTraceLCSShape(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		tr, err := TraceLCS(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		// 4^levels leaves with levels = log2(n/base).
		levels := 0
		for m := n; m > baseLen; m /= 2 {
			levels++
		}
		want := int64(1)
		for i := 0; i < levels; i++ {
			want *= 4
		}
		if tr.Leaves() != want {
			t.Errorf("n=%d: leaves %d, want %d", n, tr.Leaves(), want)
		}
		// Footprint linear in n: X + Y + boundary stack, all Θ(n) words.
		if tr.DistinctBlocks() > int64(8*n)/4 {
			t.Errorf("n=%d: footprint %d blocks too large", n, tr.DistinctBlocks())
		}
	}
}

// Cross-validation: the LCS kernel trace behaves like its (4,2,1) symbolic
// counterpart — boxes-to-complete under constant box sizes agree within the
// model's constant slack. (The symbolic problem size is the kernel's block
// footprint rounded to a power of 2.)
func TestTraceLCSCrossValidatesSymbolic(t *testing.T) {
	const m, bw = 256, 4
	tr, err := TraceLCS(m, bw)
	if err != nil {
		t.Fatal(err)
	}
	// Problem size in blocks for the symbolic (4,2,1) model: the kernel's
	// string length in blocks (X drives the recursion; Y and boundaries are
	// constant-factor companions).
	nBlocks := int64(m / bw)
	spec := regular.LCSSpec
	e, err := regular.NewExec(spec, nBlocks)
	if err != nil {
		t.Fatal(err)
	}
	const box = 16
	for !e.Done() {
		e.Step(box)
	}
	symBoxes := e.BoxesUsed()

	src, err := profile.NewSliceSource(profile.MustNew([]int64{box}))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := paging.PolicyRun(paging.SquareReplayName, tr, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	traceBoxes := int64(len(stats))
	// The kernel's constants stack against the canonical model's: each dp
	// base case touches ~6 blocks (X chunk + Y chunk + boundary, each
	// block-rounded) where the canonical model's leaf touches 1, and the
	// boundary temporaries add further footprint. The agreement claim is
	// therefore order-of-magnitude: the backends must stay within the
	// product of those documented constants (32x), which still catches any
	// structural divergence.
	if traceBoxes < symBoxes/32 || traceBoxes > symBoxes*32 {
		t.Errorf("trace %d boxes vs symbolic %d (outside 32x band)", traceBoxes, symBoxes)
	}
}
