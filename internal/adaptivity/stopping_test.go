package adaptivity

import (
	"testing"

	"repro/internal/regular"
	"repro/internal/xrand"
)

// stoppingSampleReference is the f/f' trial before the stream was drawn
// once: two executors, each fed by its own generator under trialSeed.
func stoppingSampleReference(spec regular.Spec, n int64, dist xrand.Dist, trialSeed uint64) (f, fPrime float64, err error) {
	rng1 := xrand.New(trialSeed)
	e, err := regular.NewExec(spec, n)
	if err != nil {
		return 0, 0, err
	}
	for !e.Done() {
		e.Step(dist.Sample(rng1))
	}
	f = float64(e.BoxesUsed())

	rng2 := xrand.New(trialSeed)
	ep, err := regular.NewExec(spec, n)
	if err != nil {
		return 0, 0, err
	}
	if err := ep.SetSkipRootScan(true); err != nil {
		return 0, 0, err
	}
	for !ep.Done() {
		ep.Step(dist.Sample(rng2))
	}
	return f, float64(ep.BoxesUsed()), nil
}

type stoppingCase struct {
	spec regular.Spec
	n    int64
	dist xrand.Dist
}

func stoppingCases(t *testing.T) []stoppingCase {
	t.Helper()
	uni, err := xrand.NewUniform(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := xrand.NewTwoPoint(2, 256, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := xrand.NewPowerLaw(4, 5, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	wcd, err := xrand.WorstCaseBoxDist(8, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return []stoppingCase{
		{regular.MMScanSpec, 1, uni},
		{regular.MMScanSpec, 4, tp},
		{regular.MMScanSpec, 256, uni},
		{regular.MMScanSpec, 1024, wcd},
		{regular.MMScanSpec, 1024, pl},
		{regular.StrassenSpec, 256, tp},
		{regular.LCSSpec, 512, uni},
		{regular.MMInPlaceSpec, 256, pl},
	}
}

// TestStoppingSamplerMatchesTwoStreams pins the one-stream sampler, with
// one executor and draw buffer reused across trials as a worker reuses
// them, against the two-generator form: the same (f, f') for every seed.
func TestStoppingSamplerMatchesTwoStreams(t *testing.T) {
	for _, c := range stoppingCases(t) {
		s, err := newStoppingSampler(c.spec, c.n, c.dist)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 40; seed++ {
			trialSeed := xrand.Split(seed, "stopping", c.n)
			f, fp, err := s.sample(trialSeed)
			if err != nil {
				t.Fatal(err)
			}
			wf, wfp, err := stoppingSampleReference(c.spec, c.n, c.dist, trialSeed)
			if err != nil {
				t.Fatal(err)
			}
			if f != wf || fp != wfp {
				t.Fatalf("%v n=%d %s seed %d: (f, f') = (%g, %g), want (%g, %g)",
					c.spec, c.n, c.dist.Name(), seed, f, fp, wf, wfp)
			}
		}
	}
}

// TestStoppingSamplerDrawsOn covers a second run that consumes more boxes
// than the first recorded. The canonical executor never has f' > f, so the
// test runs f' first and f second: f outlasts the record and must draw on
// from the generator to the same boxes a fresh stream holds.
func TestStoppingSamplerDrawsOn(t *testing.T) {
	longer := 0
	for _, c := range stoppingCases(t) {
		s, err := newStoppingSampler(c.spec, c.n, c.dist)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 20; seed++ {
			trialSeed := xrand.Split(seed, "stopping/draws-on", c.n)
			s.rng = *xrand.New(trialSeed)
			s.draws = s.draws[:0]
			fp, err := s.run(true)
			if err != nil {
				t.Fatal(err)
			}
			f, err := s.run(false)
			if err != nil {
				t.Fatal(err)
			}
			if f > fp {
				longer++
			}
			wf, wfp, err := stoppingSampleReference(c.spec, c.n, c.dist, trialSeed)
			if err != nil {
				t.Fatal(err)
			}
			if f != wf || fp != wfp {
				t.Fatalf("%v n=%d %s seed %d: (f, f') = (%g, %g), want (%g, %g)",
					c.spec, c.n, c.dist.Name(), seed, f, fp, wf, wfp)
			}
		}
	}
	if longer == 0 {
		t.Fatal("no second run outlasted the first; the draw-on path went untested")
	}
}
