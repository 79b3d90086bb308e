package profile

import "testing"

// drainFork checks the ForkAt contract at one offset: a fork at `box` must
// continue exactly like a fresh instance that already emitted `box` boxes.
func drainFork(t *testing.T, name string, fresh, fork Source, box int64, probe int) {
	t.Helper()
	for i := int64(0); i < box; i++ {
		fresh.Next()
	}
	for i := 0; i < probe; i++ {
		want, got := fresh.Next(), fork.Next()
		if got != want {
			t.Fatalf("%s: ForkAt(%d) box %d = %d, want %d", name, box, box+int64(i), got, want)
		}
	}
}

func TestBoxesSourceForkAt(t *testing.T) {
	boxes := []int64{3, 3, 8, 1}
	for _, box := range []int64{0, 2, 4, 7, 41} {
		fresh, _ := NewBoxesSource(boxes)
		src, _ := NewBoxesSource(boxes)
		drainFork(t, "BoxesSource", fresh, src.ForkAt(box), box, 10)
	}
}

func TestWorstCaseSourceForkAt(t *testing.T) {
	// Offsets chosen to land on leaves, mid-closer-group (right after the
	// a^2- and a^3-aligned leaves), and far out.
	for _, box := range []int64{0, 1, 8, 9, 10, 72, 73, 74, 75, 584, 10_000} {
		fresh, err := NewWorstCaseSource(8, 4)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := NewWorstCaseSource(8, 4)
		drainFork(t, "WorstCaseSource", fresh, src.ForkAt(box), box, 20)
	}
}

func TestWorstCaseSourceForkAtExhaustive(t *testing.T) {
	// Every offset in a prefix long enough to cover three closer levels.
	for box := int64(0); box < 700; box++ {
		fresh, _ := NewWorstCaseSource(2, 2)
		src, _ := NewWorstCaseSource(2, 2)
		drainFork(t, "WorstCaseSource(2,2)", fresh, src.ForkAt(box), box, 8)
	}
}

func TestOdometerSourceMatchesWorstCaseSource(t *testing.T) {
	// With leafBox = 1 and closer(j) = b^j the odometer is exactly the
	// M_{a,b} limit stream.
	w, err := NewWorstCaseSource(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pow := func(level int) int64 {
		size := int64(1)
		for i := 0; i < level; i++ {
			size *= 4
		}
		return size
	}
	o, err := NewOdometerSource(8, 1, pow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		want, got := w.Next(), o.Next()
		if got != want {
			t.Fatalf("box %d: odometer %d, want M_{8,4} %d", i, got, want)
		}
	}
}

// TestOdometerSourceReusesItsQueue: once the queue has held the deepest
// run of closers a stretch of the stream needs, drawing it allocates
// nothing, however many boxes the stream serves.
func TestOdometerSourceReusesItsQueue(t *testing.T) {
	o, err := NewOdometerSource(8, 3, func(level int) int64 { return int64(level) + 3 })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ { // past leaf 8^4, which queues four closers
		o.Next()
	}
	if avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 400; i++ {
			o.Next()
		}
	}); avg != 0 {
		t.Fatalf("400 odometer draws allocate %.1f times, want 0", avg)
	}
}

func TestOdometerSourceValidates(t *testing.T) {
	if _, err := NewOdometerSource(1, 1, func(int) int64 { return 1 }); err == nil {
		t.Fatal("a = 1 accepted")
	}
	if _, err := NewOdometerSource(4, 0, func(int) int64 { return 1 }); err == nil {
		t.Fatal("leaf box 0 accepted")
	}
}

func TestForksAreIndependent(t *testing.T) {
	// Draining one fork must not disturb another of the same receiver.
	src, _ := NewWorstCaseSource(8, 4)
	a := src.ForkAt(9)
	b := src.ForkAt(9)
	for i := 0; i < 100; i++ {
		a.Next()
	}
	fresh, _ := NewWorstCaseSource(8, 4)
	drainFork(t, "independent fork", fresh, b, 9, 20)
}
