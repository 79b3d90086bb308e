// Package core is the public face of the reproduction: it wires the
// substrates (profiles, the symbolic executor, the paging/trace backend,
// smoothing operators, real algorithms) into the eleven named experiments
// E1–E11 that regenerate the paper's figure and theorem-level claims, and
// formats their results as tables.
//
// Every experiment is deterministic in the Config fields it declares as
// its Inputs (a subset of Seed, Trials and MaxK); EXPERIMENTS.md records
// the expected shapes. Experiments execute on the shared parallel engine
// (internal/engine): a full run fans out across experiments, and the
// Monte-Carlo experiments fan out further across (size, trial) cells with
// xrand.Split-derived per-cell seeds, so the formatted text output is
// byte-identical for any worker count.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
)

// Config parameterises an experiment run.
type Config struct {
	// Seed drives all randomness; same seed, same tables.
	Seed uint64 `json:"seed"`
	// Trials is the Monte-Carlo repetition count where sampling is needed.
	Trials int `json:"trials"`
	// MaxK is the largest problem-size exponent: problems run up to
	// n = b^MaxK (4^MaxK for the matrix-shaped experiments).
	MaxK int `json:"max_k"`

	// ctx, when set, cancels the run: engine fan-outs stop claiming cells
	// once it expires. It is carried inside Config (like http.Request's
	// context) because experiment Run functions take only a Config; it is
	// never serialised and does not participate in the result — two runs
	// with equal exported fields produce identical tables.
	ctx context.Context
}

// WithContext returns a copy of c carrying ctx. The cadaptived service uses
// it to thread request deadlines into experiment fan-outs.
func (c Config) WithContext(ctx context.Context) Config {
	c.ctx = ctx
	return c
}

// Context returns the run's context (never nil).
func (c Config) Context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// DefaultConfig returns the configuration the committed EXPERIMENTS.md
// numbers were produced with.
func DefaultConfig() Config {
	return Config{Seed: 20200715, Trials: 20, MaxK: 7}
}

// ConfigError reports an invalid Config field by name, so callers (the
// cadaptive CLI in particular) can point at the flag that caused it.
type ConfigError struct {
	Field string // "Trials" or "MaxK"
	Msg   string
}

func (e *ConfigError) Error() string { return "core: " + e.Msg }

// Validate checks the configuration, returning a *ConfigError naming the
// offending field when it is invalid.
func (c Config) Validate() error {
	if c.Trials < 1 {
		return &ConfigError{Field: "Trials", Msg: fmt.Sprintf("trials %d < 1", c.Trials)}
	}
	if c.MaxK < 4 {
		// The slope-fit experiments sweep k = 3..MaxK and need >= 2 sizes.
		return &ConfigError{Field: "MaxK", Msg: fmt.Sprintf("maxK %d < 4 (experiments fit slopes over k = 3..maxK and need at least two sizes)", c.MaxK)}
	}
	if c.MaxK > 10 {
		// The streamed experiments (E9 and friends) pull their profiles from
		// limit streams and scale to 4^10; everything that materializes a
		// worst-case profile clamps itself to k <= 9 via clampMaterializedK.
		return &ConfigError{Field: "MaxK", Msg: fmt.Sprintf("maxK %d > 10 (only the streamed experiments scale past 4^9, and nothing is gated above 4^10)", c.MaxK)}
	}
	return nil
}

// clampMaterializedK caps MaxK for experiments that materialize worst-case
// profiles or traces: above k = 9 those structures do not fit in memory, so
// such runners take the k <= 9 prefix of the sweep instead of failing. The
// streamed experiments (which pull boxes from limit streams) ignore this and
// honour MaxK up to the Validate cap of 10.
func clampMaterializedK(cfg Config) Config {
	if cfg.MaxK > 9 {
		cfg.MaxK = 9
	}
	return cfg
}

// Metrics records how an experiment executed on the engine. It is
// deliberately excluded from Format and FormatTSV so that text output
// stays byte-identical across worker counts; the JSON snapshot carries it.
type Metrics struct {
	// WallSeconds is the experiment's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// Cells is the number of engine cells the experiment executed (0 for
	// experiments that run entirely serially).
	Cells int64 `json:"cells"`
	// BusySeconds is cell execution time summed across workers.
	BusySeconds float64 `json:"busy_seconds"`
	// Workers is the engine's concurrency bound during the run.
	Workers int `json:"workers"`
	// Utilisation is BusySeconds / (WallSeconds × Workers) — the fraction
	// of the worker-seconds the run had available that its cells actually
	// used. Serial sections and scheduling overhead lower it.
	Utilisation float64 `json:"utilisation"`
}

// Table is a formatted experiment result.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"` // provenance, fitted slopes, pass/fail summary
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Metrics is filled by Run/RunAll and the engine-backed runners; it is
	// not part of the formatted text.
	Metrics Metrics `json:"metrics"`
}

// AddRow appends a row of cells (converted with %v).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Note)
	}
	return sb.String()
}

// FormatTSV renders the table as tab-separated values (header row first,
// note as a trailing #-comment) for downstream plotting.
func (t *Table) FormatTSV() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n", t.ID, t.Title)
	sb.WriteString(strings.Join(t.Header, "\t"))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, "\t"))
		sb.WriteByte('\n')
	}
	if t.Note != "" {
		fmt.Fprintf(&sb, "# note: %s\n", t.Note)
	}
	return sb.String()
}

// ErrUnknownExperiment marks run requests whose ID is malformed or not
// registered; callers (the HTTP service) match it with errors.Is to choose
// a 404 over a 400.
var ErrUnknownExperiment = errors.New("unknown experiment")

// Inputs is the set of exported Config fields an experiment's tables
// depend on. Every registered experiment declares one, and that declaration
// is enforced rather than trusted: runTimed hands the runner a config with
// every undeclared field zeroed, and CacheKey hashes that same projection,
// so two configs that agree on an experiment's inputs address one table.
type Inputs uint8

const (
	InputSeed Inputs = 1 << iota
	InputTrials
	InputMaxK
	// InputNone declares that the experiment reads no Config field. It is
	// a bit of its own so that the zero value stays "undeclared", which
	// register rejects.
	InputNone
)

// inputFields names each Config input by its JSON tag, in field order.
var inputFields = []struct {
	in   Inputs
	name string
}{{InputSeed, "seed"}, {InputTrials, "trials"}, {InputMaxK, "max_k"}}

// Names lists the declared fields under their JSON names (seed, trials,
// max_k), in Config order; an experiment that reads none yields an empty,
// non-nil slice.
func (in Inputs) Names() []string {
	names := []string{}
	for _, f := range inputFields {
		if in&f.in != 0 {
			names = append(names, f.name)
		}
	}
	return names
}

// valid reports whether in is a declaration register accepts: InputNone
// alone, or a non-empty combination of the three field bits.
func (in Inputs) valid() bool {
	if in == InputNone {
		return true
	}
	return in != 0 && in&^(InputSeed|InputTrials|InputMaxK) == 0
}

// project returns cfg with every exported field outside in zeroed, keeping
// the context. It is the one place a config is narrowed to an experiment's
// inputs: runTimed runs on its result and CacheKey hashes it, so a runner
// that read an undeclared field would see 0 and drift from the golden
// tables.
func (in Inputs) project(cfg Config) Config {
	if in&InputSeed == 0 {
		cfg.Seed = 0
	}
	if in&InputTrials == 0 {
		cfg.Trials = 0
	}
	if in&InputMaxK == 0 {
		cfg.MaxK = 0
	}
	return cfg
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID      string
	Source  string // the paper element it reproduces
	Summary string
	Inputs  Inputs // the Config fields Run reads; see Inputs
	Run     func(Config) (*Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, _, err := ParseID(e.ID); err != nil {
		panic("core: invalid experiment ID " + e.ID)
	}
	if !e.Inputs.valid() {
		panic(fmt.Sprintf("core: experiment %s declares no valid input set (%#x)", e.ID, uint8(e.Inputs)))
	}
	if _, dup := registry[e.ID]; dup {
		panic("core: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// ParseID parses an experiment ID of the form E<n> (paper experiments) or
// A<n> (ablations), n >= 1. Malformed IDs — "Axe", a bare "A", "E07x" —
// are rejected rather than silently parsed as 0, leading zeros ("A07") are
// rejected rather than aliased onto "A7", and over-long digit strings are
// rejected before they can overflow n. Accepted IDs round-trip exactly:
// fmt.Sprintf("%c%d", kind, n) == id.
func ParseID(id string) (kind byte, n int, err error) {
	if len(id) < 2 || (id[0] != 'E' && id[0] != 'A') {
		return 0, 0, fmt.Errorf("core: malformed experiment ID %q (want E<n> or A<n>)", id)
	}
	if id[1] == '0' {
		return 0, 0, fmt.Errorf("core: malformed experiment ID %q (no leading zeros)", id)
	}
	if len(id) > 7 {
		// 6 digits is far beyond any registered experiment and keeps the
		// accumulator a safe distance from overflow on 32-bit ints.
		return 0, 0, fmt.Errorf("core: malformed experiment ID %q (too long)", id)
	}
	for i := 1; i < len(id); i++ {
		if id[i] < '0' || id[i] > '9' {
			return 0, 0, fmt.Errorf("core: malformed experiment ID %q (want E<n> or A<n>)", id)
		}
		n = n*10 + int(id[i]-'0')
	}
	if n < 1 {
		return 0, 0, fmt.Errorf("core: malformed experiment ID %q (numbering starts at 1)", id)
	}
	return id[0], n, nil
}

// Lookup returns the registered experiment with the given ID, reporting
// whether it exists. It is the cheap existence check front-ends use to
// reject unknown IDs before committing resources to a run.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Experiments lists the registered experiments in ID order.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e) //lint:ignore maporder out is sorted by ID immediately below
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware: E2 before E10.
		return experimentOrder(out[i].ID) < experimentOrder(out[j].ID)
	})
	return out
}

func experimentOrder(id string) int {
	kind, n, err := ParseID(id)
	if err != nil {
		// register() guarantees registry IDs parse; any malformed ID sorts
		// last so it is at least visible.
		return 1 << 20
	}
	if kind == 'A' {
		return 100 + n // ablations sort after the paper experiments
	}
	return n
}

// knownIDs returns every registered ID in display order, for error texts.
func knownIDs() string {
	ids := make([]string, 0, len(registry))
	for _, ex := range Experiments() {
		ids = append(ids, ex.ID)
	}
	return strings.Join(ids, ", ")
}

// Run executes the experiment with the given ID and records its Metrics
// (wall time, engine cells, utilisation) on the returned table.
func Run(id string, cfg Config) (*Table, error) {
	return RunContext(context.Background(), id, cfg)
}

// RunContext is the run-by-ID entry point shared by the cadaptive CLI and
// the cadaptived service — both go through it, so their results cannot
// drift. ctx cancellation propagates into the experiment's engine fan-outs:
// in-flight cells finish, queued cells never start, and the error is
// ctx.Err().
func RunContext(ctx context.Context, id string, cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, _, err := ParseID(id); err != nil {
		return nil, fmt.Errorf("core: %w %q: %v (have %s)", ErrUnknownExperiment, id, err, knownIDs())
	}
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("core: %w %q (have %s)", ErrUnknownExperiment, id, knownIDs())
	}
	return runTimed(e, cfg.WithContext(ctx))
}

// CacheKey returns the content address of a run's result: a hex SHA-256
// over the snapshot schema version, the experiment ID, and the experiment's
// declared Inputs — cfg is projected first, so undeclared fields hash as 0
// and configs that differ only there share one key (E11 reads no field and
// has a single key; E1 has one per maxK). Runs see the same projection, so
// an experiment is a pure function of exactly the fields its key covers
// (worker count and scheduling only move wall time). Equal keys therefore
// mean byte-identical tables, which is what makes result caching sound.
// For an experiment that reads all three fields nothing is zeroed, so its
// keys equal those of builds that hashed every field, and job journals
// written by them keep resuming (TestCacheKeyPinnedForFullInputs). The
// schema version is mixed in so cached bytes from an older JSON layout can
// never be served by a newer build. An unregistered ID hashes every field,
// as no run can produce its table.
func CacheKey(id string, cfg Config) string {
	if e, ok := registry[id]; ok {
		cfg = e.Inputs.project(cfg)
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("cadaptive/v%d|%s|seed=%d|trials=%d|maxk=%d",
		SnapshotSchemaVersion, id, cfg.Seed, cfg.Trials, cfg.MaxK)))
	return hex.EncodeToString(h[:])
}

// runTimed executes one experiment on cfg projected to its declared Inputs
// and fills in its metrics. Each experiment accounts against its own engine
// group (set up by the runner), so per-experiment cell counts stay
// meaningful even when RunAll executes many experiments concurrently on the
// shared pool.
func runTimed(e Experiment, cfg Config) (*Table, error) {
	if err := cfg.Context().Err(); err != nil {
		return nil, err // dead on arrival: don't start the run at all
	}
	workers := engine.Shared().Workers()
	start := time.Now() //lint:ignore notime engine metrics timing, excluded from formatted tables and normalized out of goldens
	t, err := e.Run(e.Inputs.project(cfg))
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds() //lint:ignore notime engine metrics timing, excluded from formatted tables and normalized out of goldens
	t.Metrics.WallSeconds = wall
	t.Metrics.Workers = workers
	if wall > 0 {
		t.Metrics.Utilisation = t.Metrics.BusySeconds / (wall * float64(workers))
	}
	return t, nil
}

// RunAll executes every experiment, fanning out across experiments on the
// shared engine pool. Tables come back in ID order regardless of which
// experiment finished first, and their contents are byte-identical to a
// serial run; only the Metrics differ with the worker count.
func RunAll(cfg Config) ([]*Table, error) {
	return RunAllContext(context.Background(), cfg)
}

// RunAllContext is RunAll with cancellation threaded into the fan-out
// across experiments (and from there into each experiment's own cells).
func RunAllContext(ctx context.Context, cfg Config) ([]*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithContext(ctx)
	exps := Experiments()
	out := make([]*Table, len(exps))
	g := engine.NewGroup().WithContext(ctx)
	err := g.Map(len(exps), func(i, _ int) error {
		t, err := runTimed(exps[i], cfg)
		if err != nil {
			return fmt.Errorf("core: %s: %w", exps[i].ID, err)
		}
		out[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
