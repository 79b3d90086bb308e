package matrix

import "testing"

// TestWorstCaseBoxStreamMatchesProfile pins the stream against the
// materialized Figure-1 profile: the first `count` boxes must be the
// profile exactly, and (count, duration) must match its length and
// duration. This is the equivalence E9's streamed rungs stand on.
func TestWorstCaseBoxStreamMatchesProfile(t *testing.T) {
	for _, dim := range []int{8, 16, 32, 64, 256} {
		for _, bw := range []int64{1, 8, 64} {
			wc, err := WorstCaseProfile(dim, bw)
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
