package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/paging"
)

// goldenFile holds the tables `cadaptive -exp all` prints at the default
// config; at that config the suite must reproduce it byte for byte.
const goldenFile = "experiments_run.txt"

// suiteBench regenerates every table with core.RunAllContext — the
// researcher's "regenerate every table" run. Its time goes to the symbolic
// executor and smoothing, the engine's Monte-Carlo cells and small-n
// paging; it does no large streaming replay and no HTTP.
type suiteBench struct {
	e           env
	cfg         core.Config
	golden      []byte          // the reference tables; nil unless cfg is the default config
	passes      [][]*core.Table // every pass's tables
	passSeconds float64         // the last pass's time
}

func newSuiteBench(e env) *suiteBench {
	cfg := e.sz.suite
	cfg.Seed = e.seed
	return &suiteBench{e: e, cfg: cfg}
}

// setup loads the reference tables when the config has them, then runs the
// suite once at a small size to warm the code and the heap.
func (b *suiteBench) setup(tr *tracer) error {
	if b.cfg == core.DefaultConfig() {
		sp := tr.begin(0, "os.ReadFile:"+goldenFile)
		data, err := os.ReadFile(filepath.Join(b.e.root, goldenFile))
		sp.end()
		if err != nil {
			return fmt.Errorf("loading reference tables: %w", err)
		}
		b.golden = data
	}
	warm := core.Config{Seed: b.cfg.Seed, Trials: 2, MaxK: 4}
	sp := tr.begin(0, "core.RunAllContext:warm-up")
	_, err := core.RunAllContext(context.Background(), warm)
	sp.end()
	return err
}

// pass regenerates every table with one RunAllContext call, traced or
// not; each table's own time comes from its Metrics.
func (b *suiteBench) pass(tr *tracer, parent int) (passResult, error) {
	sp := tr.begin(parent, "core.RunAllContext")
	tables, err := core.RunAllContext(context.Background(), b.cfg)
	b.passSeconds = sp.end()
	if err != nil {
		return passResult{}, err
	}
	b.passes = append(b.passes, tables)
	r := passResult{wall: b.passSeconds, opPhase: b.passSeconds}
	for _, t := range tables {
		r.ops = append(r.ops, t.Metrics.WallSeconds)
		r.names = append(r.names, t.ID)
	}
	return r, nil
}

// check runs checkSuite on every pass and requires every pass to produce
// the same text.
func (b *suiteBench) check() error {
	for i, tables := range b.passes {
		if err := checkSuite(tables, b.golden); err != nil {
			return fmt.Errorf("pass %d: %w", i+1, err)
		}
		if i > 0 && formatText(tables) != formatText(b.passes[0]) {
			return fmt.Errorf("pass %d tables differ from pass 1", i+1)
		}
	}
	return nil
}

// layers reports each table's time, table assembly, the engine's
// accounting, and the suite's speedup at worker bound 2.
func (b *suiteBench) layers(tr *tracer) (map[string]float64, error) {
	tables := b.passes[len(b.passes)-1]
	v := map[string]float64{}
	for _, t := range tables {
		v["core.exp_s."+t.ID] = t.Metrics.WallSeconds
	}
	sp := tr.begin(0, "core.Format")
	for _, t := range tables {
		_ = t.Format()
		_ = t.FormatTSV()
	}
	_, err := core.NewSnapshot(b.cfg, tables, 0, time.Time{}).MarshalIndentJSON()
	v["core.format_s"] = sp.end()
	if err != nil {
		return nil, err
	}
	var cells int64
	var busy, wall float64
	for _, t := range tables {
		cells += t.Metrics.Cells
		busy += t.Metrics.BusySeconds
		wall += t.Metrics.WallSeconds
	}
	v["engine.cells"] = float64(cells)
	v["engine.busy_s"] = busy
	v["engine.utilisation"] = busy / (wall * float64(engine.Shared().Workers()))
	if v["engine.suite_speedup_w2"], err = b.speedupW2(tr, tables); err != nil {
		return nil, err
	}
	return v, nil
}

// speedupW2 reruns the suite at engine worker bound 2 and returns the last
// pass's time, at bound 1 through the same call, over its time. The tables
// must not change.
func (b *suiteBench) speedupW2(tr *tracer, w1 []*core.Table) (float64, error) {
	engine.SetSharedWorkers(2)
	defer engine.SetSharedWorkers(1)
	settle()
	sp := tr.begin(0, "core.RunAllContext:workers=2")
	tables, err := core.RunAllContext(context.Background(), b.cfg)
	d := sp.end()
	if err != nil {
		return 0, err
	}
	if formatText(tables) != formatText(w1) {
		return 0, errors.New("tables at engine worker bound 2 differ from bound 1")
	}
	return b.passSeconds / d, nil
}

func (b *suiteBench) close() error { return nil }

// formatText renders tables exactly as `cadaptive -exp all` prints them.
func formatText(tables []*core.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.Format())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkSuite checks one pass's tables: byte-identical to golden when there
// is one, and at every seed the exact, seed-independent invariants that
// core's tests pin.
func checkSuite(tables []*core.Table, golden []byte) error {
	if want := len(core.Experiments()); len(tables) != want {
		return fmt.Errorf("%d tables, want %d", len(tables), want)
	}
	if golden != nil {
		if got := formatText(tables); got != string(golden) {
			return fmt.Errorf("tables differ from %s from line %d on", goldenFile, firstDiffLine(got, string(golden)))
		}
	}
	byID := map[string]*core.Table{}
	for _, t := range tables {
		byID[t.ID] = t
	}
	for _, inv := range suiteInvariants {
		t, ok := byID[inv.id]
		if !ok {
			return fmt.Errorf("%s is missing", inv.id)
		}
		if err := inv.check(t.Rows); err != nil {
			return fmt.Errorf("%s: %w", inv.id, err)
		}
	}
	return nil
}

// suiteInvariants are exact properties of the tables that hold at every
// seed.
var suiteInvariants = []struct {
	id    string
	check func(rows [][]string) error
}{
	// The worst-case profile's pot/n^1.5 equals the expected k+1.
	{"E1", func(rows [][]string) error {
		for _, r := range rows {
			if len(r) < 7 || !sameNumber(r[5], r[6]) {
				return fmt.Errorf("row %q: pot/n^1.5 differs from expected", r)
			}
		}
		return nil
	}},
	// MM-Scan completes exactly one multiply within its worst-case profile.
	{"E9", func(rows [][]string) error {
		for _, r := range rows {
			if len(r) < 5 || r[4] != "1" {
				return fmt.Errorf("row %q: MM-Scan multiplies != 1", r)
			}
		}
		return nil
	}},
	// The No-Catch-up lemma has no violations.
	{"E10", func(rows [][]string) error {
		if len(rows) == 0 || len(rows[0]) < 2 || rows[0][1] != "0" {
			return fmt.Errorf("rows %q: No-Catch-up violations", rows)
		}
		return nil
	}},
	// The square replay's worst-case gap is exactly k+1.
	{"E12", func(rows [][]string) error {
		squares := 0
		for _, r := range rows {
			if len(r) < 4 || r[0] != paging.SquareReplayName {
				continue
			}
			k, err := strconv.Atoi(r[1])
			if err != nil || r[3] != fmt.Sprintf("%.3f", float64(k+1)) {
				return fmt.Errorf("row %q: square worst-case gap is not k+1", r)
			}
			squares++
		}
		if squares == 0 {
			return errors.New("no square rows")
		}
		return nil
	}},
}

// sameNumber reports whether a and b parse to the same number.
func sameNumber(a, b string) bool {
	x, errA := strconv.ParseFloat(a, 64)
	y, errB := strconv.ParseFloat(b, 64)
	return errA == nil && errB == nil && x == y
}

// firstDiffLine returns the 1-based number of the first line where a and b
// differ.
func firstDiffLine(a, b string) int {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			return i + 1
		}
	}
	return len(la) + 1
}
