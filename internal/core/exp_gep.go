package core

import (
	"fmt"

	"repro/internal/gep"
	"repro/internal/paging"
	"repro/internal/profile"
	"repro/internal/trace"
)

// A4 replays the paper's MM-Scan vs MM-InPlace contrast on a second real
// algorithm family it names: the Gaussian Elimination Paradigm,
// instantiated as Floyd–Warshall all-pairs shortest paths. The copying
// (not-in-place) GEP is (8,4,1)-regular in blocks; the in-place I-GEP is
// (8,4,0). Both compute identical real shortest paths (tested), and their
// traces replay against the adversarial profile matched to the copying
// variant.

func init() {
	register(Experiment{
		ID:      "A4",
		Source:  "Theorem 2 applied to GEP ([17]'s Gaussian elimination paradigm)",
		Summary: "Floyd–Warshall via GEP: the copying variant starves on its worst-case profile while the in-place variant completes many instances",
		Run:     runA4,
	})
}

func runA4(cfg Config) (*Table, error) {
	const bw = 8
	t := &Table{
		ID:     "A4",
		Title:  "GEP/Floyd–Warshall on the copying variant's worst-case profile (B=8 words/block)",
		Header: []string{"vertices", "profile boxes", "profile IOs", "copying GEP", "in-place GEP"},
	}
	dims := []int{32, 64, 128}
	if cfg.MaxK >= 7 {
		dims = append(dims, 256)
	}
	const reps = 10
	for _, dim := range dims {
		wc, err := gep.WorstCaseProfile(dim, bw)
		if err != nil {
			return nil, err
		}
		boxes := wc.Boxes()
		count := func(tr *trace.Trace) (int, error) {
			src, err := profile.NewBoxesSource(boxes)
			if err != nil {
				return 0, err
			}
			f := paging.NewSquareFinisher(src, int64(len(boxes)))
			trace.ReplayRepeat(tr, f, reps, tr.MaxBlock()+1)
			if err := f.Err(); err != nil {
				return 0, err
			}
			return int(f.Served()) / tr.Len(), nil
		}
		scanTr, err := gep.TraceFWScan(dim, bw)
		if err != nil {
			return nil, err
		}
		inpTr, err := gep.TraceFWInPlace(dim, bw)
		if err != nil {
			return nil, err
		}
		scanCount, err := count(scanTr)
		if err != nil {
			return nil, err
		}
		inpCount, err := count(inpTr)
		if err != nil {
			return nil, err
		}
		inpCell := fmt.Sprintf("%d", inpCount)
		if inpCount >= reps {
			inpCell = fmt.Sprintf(">=%d (workload exhausted)", reps)
		}
		t.AddRow(dim, wc.Len(), wc.Duration(), scanCount, inpCell)
	}
	t.Note = "the MM-Scan story generalises to the paper's other named family: the copying GEP is pinned at 1-2 instances per profile while the in-place I-GEP — whose single-matrix working set is a fraction of the profile's boxes — finishes every instance offered. Same dichotomy, different real algorithm (and the shortest-path outputs of both variants are verified equal in the unit suite)."
	return t, nil
}
