package main

import (
	"fmt"
	"maps"

	"repro/internal/adaptivity"
	"repro/internal/engine"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/regular"
	"repro/internal/smoothing"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// probeReps is how many times each layer probe runs; it reports the median.
const probeReps = 3

// probeCapacity is the paging probes' fixed capacity, and the box size of
// their constant profile.
const probeCapacity = 64

// probeLayers measures single layers on fixed inputs: the engine's per-cell
// dispatch, the generator, the symbolic executor, profile construction and
// shuffling, trace materialization, and each paging kernel with and
// without the box-replay adapter.
func probeLayers(tr *tracer, sz sizes) (map[string]float64, error) {
	spec := regular.MMScanSpec
	n := profile.Pow(4, sz.probeK)
	v := map[string]float64{}

	const cells = 1 << 16
	g := engine.NewGroup()
	d, err := timeReps(tr, "engine.Group.Map", func() error {
		return g.Map(cells, func(_, _ int) error { return nil })
	})
	if err != nil {
		return nil, err
	}
	v["engine.map_ns_per_cell"] = d * 1e9 / cells

	// The generator alone, at the replay workload's size.
	var refs int64
	d, err = timeReps(tr, "regular.EmitSynthetic", func() error {
		c := &trace.CountingSink{}
		err := regular.EmitSynthetic(spec, profile.Pow(4, sz.replayK), c)
		refs = c.Refs
		return err
	})
	if err != nil {
		return nil, err
	}
	v["regular.emit_ns_per_ref"] = d * 1e9 / float64(refs)

	// The symbolic executor on E3's cell shape: GapSampleExec against
	// i.i.d. boxes from M_{8,4}(n)'s size distribution.
	dist, err := xrand.WorstCaseBoxDist(8, 4, n)
	if err != nil {
		return nil, err
	}
	ex, err := regular.NewExec(spec, n)
	if err != nil {
		return nil, err
	}
	cd := &countingDist{Dist: dist}
	d, err = timeReps(tr, "adaptivity.GapSampleExec", func() error {
		cd.boxes = 0
		for seed := uint64(1); seed <= 4; seed++ {
			if _, err := adaptivity.GapSampleExec(ex, cd, seed); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	v["regular.exec_ns_per_box"] = d * 1e9 / float64(cd.boxes)

	var wc *profile.SquareProfile
	if v["profile.worstcase_build_s"], err = timeReps(tr, "profile.WorstCase", func() (err error) {
		wc, err = profile.WorstCase(8, 4, n)
		return err
	}); err != nil {
		return nil, err
	}
	rng := xrand.New(1)
	var buf []int64
	d, err = timeReps(tr, "smoothing.ShuffleTo", func() error {
		buf = smoothing.ShuffleTo(buf, wc, rng)
		return nil
	})
	if err != nil {
		return nil, err
	}
	v["smoothing.shuffle_ns_per_box"] = d * 1e9 / float64(wc.Len())

	var mat *trace.Trace
	d, err = timeReps(tr, "regular.SyntheticTrace", func() (err error) {
		mat, err = regular.SyntheticTrace(spec, n)
		return err
	})
	if err != nil {
		return nil, err
	}
	v["trace.materialize_ns_per_ref"] = d * 1e9 / float64(mat.Len())

	pv, err := probePaging(tr, mat)
	if err != nil {
		return nil, err
	}
	maps.Copy(v, pv)
	return v, nil
}

// probePaging replays one materialized trace through each registered
// kernel at a fixed capacity (paging.RunPolicyFixed), and through the same
// kernel behind PolicyStream on a constant profile of that capacity
// (paging.PolicyRun), which must miss exactly as often; then the opt and
// square replays on that profile.
func probePaging(tr *tracer, mat *trace.Trace) (map[string]float64, error) {
	v := map[string]float64{}
	perRef := 1e9 / float64(mat.Len())
	replay := func(name string) (float64, int64, error) {
		var ios int64
		d, err := timeReps(tr, "paging.PolicyRun:"+name, func() error {
			src, err := profile.NewSliceSource(profile.MustNew([]int64{probeCapacity}))
			if err != nil {
				return err
			}
			stats, err := paging.PolicyRun(name, mat, src, 0)
			ios = paging.TotalIOs(stats)
			return err
		})
		return d, ios, err
	}
	for _, name := range paging.PolicyNames() {
		var misses int64
		kernel, err := timeReps(tr, "paging.RunPolicyFixed:"+name, func() (err error) {
			misses, err = paging.RunPolicyFixed(name, mat, probeCapacity)
			return err
		})
		if err != nil {
			return nil, err
		}
		stream, ios, err := replay(name)
		if err != nil {
			return nil, err
		}
		if ios != misses {
			return nil, fmt.Errorf("%s: %d I/Os on a constant profile but %d misses at that fixed capacity", name, ios, misses)
		}
		v["paging.kernel_ns_per_access."+name] = kernel * perRef
		v["paging.stream_ns_per_access."+name] = stream * perRef
		v["paging.stream_overhead_x."+name] = stream / kernel
	}
	for _, name := range []string{paging.OPTReplayName, paging.SquareReplayName} {
		d, _, err := replay(name)
		if err != nil {
			return nil, err
		}
		v["paging."+name+"_ns_per_access"] = d * perRef
	}
	return v, nil
}

// timeReps runs fn probeReps times, each in its own span, and returns the
// median duration in seconds.
func timeReps(tr *tracer, name string, fn func() error) (float64, error) {
	ds := make([]float64, probeReps)
	for i := range ds {
		sp := tr.begin(0, name)
		err := fn()
		ds[i] = sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(ds), nil
}

// countingDist counts the boxes an executor draws.
type countingDist struct {
	xrand.Dist
	boxes int64
}

func (c *countingDist) Sample(src *xrand.Source) int64 {
	c.boxes++
	return c.Dist.Sample(src)
}
