package matrix

import (
	"testing"

	"repro/internal/profile"
)

// worstCaseProfile materializes the profile WorstCaseBoxStream streams,
// straight from its recursive definition: the profile for a d×d product
// is eight copies of the profile for d/2 followed by one merge-scan box of
// 3·d²/B blocks, and a base case gets one box of its footprint,
// 3·⌈base²/B⌉ blocks. It is the oracle for the stream's odometer.
func worstCaseProfile(dim int, blockWords int64) (*profile.SquareProfile, error) {
	if err := validateTraceArgs(dim, blockWords); err != nil {
		return nil, err
	}
	var boxes []int64
	var build func(d int64)
	build = func(d int64) {
		if d <= traceBaseDim {
			boxes = append(boxes, 3*((d*d+blockWords-1)/blockWords))
			return
		}
		for i := 0; i < 8; i++ {
			build(d / 2)
		}
		boxes = append(boxes, 3*d*d/blockWords)
	}
	build(int64(dim))
	return profile.New(boxes)
}

// TestWorstCaseBoxStreamMatchesProfile pins the stream against the
// materialized Figure-1 profile: the first `count` boxes must be the
// profile exactly, and (count, duration) must match its length and
// duration. This is the equivalence E9's streamed rungs stand on.
func TestWorstCaseBoxStreamMatchesProfile(t *testing.T) {
	for _, dim := range []int{8, 16, 32, 64, 256} {
		for _, bw := range []int64{1, 8, 64} {
			wc, err := worstCaseProfile(dim, bw)
			if err != nil {
				t.Fatal(err)
			}
			src, count, duration, err := WorstCaseBoxStream(dim, bw)
			if err != nil {
				t.Fatal(err)
			}
			if count != int64(wc.Len()) {
				t.Fatalf("dim %d bw %d: count = %d, profile has %d boxes", dim, bw, count, wc.Len())
			}
			if duration != wc.Duration() {
				t.Fatalf("dim %d bw %d: duration = %d, profile duration %d", dim, bw, duration, wc.Duration())
			}
			for i := 0; i < wc.Len(); i++ {
				if got, want := src.Next(), wc.Box(i); got != want {
					t.Fatalf("dim %d bw %d: stream box %d = %d, profile box %d", dim, bw, i, got, want)
				}
			}
		}
	}
}

func TestWorstCaseBoxStreamValidates(t *testing.T) {
	if _, _, _, err := WorstCaseBoxStream(7, 8); err == nil {
		t.Fatal("non-power-of-two dim accepted")
	}
	if _, _, _, err := WorstCaseBoxStream(64, 0); err == nil {
		t.Fatal("block size 0 accepted")
	}
}
