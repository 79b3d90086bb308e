package profile

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// squarizeSlice is the greedy inner-square reduction as it ran over a
// materialized profile, indexing ahead of the box it grows: the oracle the
// streamed SquarizeRaw is checked against.
func squarizeSlice(m []int64) ([]int64, error) {
	for i, v := range m {
		if v < 1 {
			return nil, fmt.Errorf("profile: m(%d) = %d < 1", i, v)
		}
	}
	var boxes []int64
	t := 0
	for t < len(m) {
		x := int64(1)
		minH := m[t]
		for {
			next := x + 1
			if t+int(next) > len(m) {
				break
			}
			h := minH
			if mh := m[t+int(next)-1]; mh < h {
				h = mh
			}
			if h < next {
				break
			}
			minH = h
			x = next
		}
		if rem := int64(len(m) - t); x > rem {
			x = rem
		}
		boxes = append(boxes, x)
		t += int(x)
	}
	return boxes, nil
}

// shortReads hands out at most max sizes per Read, so a RawReader refills
// its window mid-box.
type shortReads struct {
	r   Raw
	max int
}

func (s *shortReads) Read(dst []int64) int { return s.r.Read(dst[:min(len(dst), s.max)]) }

// checkSquarizeMatches compares the streamed reduction, read whole and in
// short reads, with the oracle on m: the same boxes, or the same error.
func checkSquarizeMatches(t *testing.T, m []int64, maxRead int) {
	t.Helper()
	want, wantErr := squarizeSlice(m)
	for _, raw := range []Raw{SliceRaw(m), &shortReads{r: SliceRaw(m), max: maxRead}} {
		p, err := SquarizeRaw(raw)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("len %d: error %v, want %v", len(m), err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("len %d: %v", len(m), err)
		}
		if got := p.Boxes(); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("len %d, reads of <= %d: boxes %v, want %v", len(m), maxRead, got, want)
		}
	}
}

// TestSquarizeRawMatchesSliceGreedy checks the streamed reduction against
// the slice greedy on random profiles: heights up to far beyond a window
// (boxes that span refills), lengths around the window size, the empty
// and one-step profiles, and a height < 1 at a random index, which both
// must name.
func TestSquarizeRawMatchesSliceGreedy(t *testing.T) {
	checkSquarizeMatches(t, nil, 1)
	checkSquarizeMatches(t, []int64{5}, 1)
	checkSquarizeMatches(t, []int64{0}, 1)
	checkSquarizeMatches(t, []int64{3, 3, 3, 1, 2, 2}, 2)
	for trial := 0; trial < 200; trial++ {
		src := xrand.New(xrand.Split(26, "squarize", int64(trial)))
		length := src.Intn(3 * rawWindow)
		maxH := 1 + src.Int63n([]int64{4, 64, 1024, 3 * rawWindow}[trial%4])
		m := make([]int64, length)
		for i := range m {
			m[i] = 1 + src.Int63n(maxH)
		}
		if length > 0 && trial%5 == 0 {
			m[src.Intn(length)] = -src.Int63n(2)
		}
		checkSquarizeMatches(t, m, 1+src.Intn(97))
	}
}

// TestRandomWalkDrawOrder pins the walk to one Int63n draw per step, taken
// after the step's size is recorded, however the steps are read.
func TestRandomWalkDrawOrder(t *testing.T) {
	const start, minM, maxM, step, length = 40, 8, 64, 5, 10000
	want := make([]int64, length)
	rng := xrand.New(99)
	cur := int64(start)
	for i := range want {
		want[i] = cur
		cur = min(max(cur+rng.Int63n(2*step+1)-step, minM), maxM)
	}
	for _, maxRead := range []int{1, 7, length} {
		raw, err := RandomWalk(xrand.New(99), start, minM, maxM, step, length)
		if err != nil {
			t.Fatal(err)
		}
		if got := Collect(&shortReads{r: raw, max: maxRead}); !reflect.DeepEqual(got, want) {
			t.Fatalf("reads of <= %d: the walk's steps differ from one draw per step", maxRead)
		}
	}
}
