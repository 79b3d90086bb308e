// Command cadaptive runs the paper-reproduction experiments E1–E13 and the
// ablations A1–A7, and prints their tables.
//
// Usage:
//
//	cadaptive -list
//	cadaptive -exp E3 -seed 1 -trials 20 -maxk 7
//	cadaptive -exp all -workers 8
//	cadaptive -exp E3 -format json > BENCH_baseline.json
//	cadaptive -server http://127.0.0.1:8344 -exp E3
//	cadaptive -server http://127.0.0.1:8344 -batch -exp E1 -seeds 8 -maxk-min 4 -maxk 7
//	cadaptive -server http://127.0.0.1:8344 -job j1
//
// With -server the experiments execute on a cadaptived instance instead of
// in-process: requests go through the retrying service client (capped
// backoff, Retry-After aware), and the output is formatted identically —
// determinism makes a remote table byte-for-byte the table a local run
// would have produced.
//
// -batch submits the (experiment × seed range × maxk sweep) grid as one
// durable server-side job, waits for it, and prints every completed cell's
// table; a job that degrades to "partial" still prints its completed tables
// before the command fails. -job attaches to an existing job instead of
// submitting — after a server restart, attaching to the same ID resumes
// waiting on the journal-recovered job.
//
// Every run is deterministic in (-seed, -trials, -maxk) — and only those:
// table contents are byte-identical for any -workers value. EXPERIMENTS.md
// was generated with the defaults.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, time.Now); err != nil {
		fmt.Fprintln(os.Stderr, "cadaptive:", err)
		os.Exit(1)
	}
}

// flagForField maps a ConfigError's field to the CLI flag that sets it.
var flagForField = map[string]string{
	"Trials": "-trials",
	"MaxK":   "-maxk",
}

// run is the whole CLI behind main: flags in, formatted tables out on
// stdout. It takes its arguments, output stream and clock explicitly so
// the end-to-end golden test can execute the real CLI path in-process with
// a fixed timestamp — internal/core never reads the wall clock itself
// (enforced by cadaptivelint's notime check), so the injected now is the
// only source of GeneratedAt and wall times.
func run(args []string, stdout io.Writer, now func() time.Time) error {
	def := core.DefaultConfig()
	fs := flag.NewFlagSet("cadaptive", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment ID (E1..E13, A1..A7) or \"all\"")
		seed    = fs.Uint64("seed", def.Seed, "random seed (all experiments are deterministic in it)")
		trials  = fs.Int("trials", def.Trials, "Monte-Carlo trials per measurement")
		maxK    = fs.Int("maxk", def.MaxK, "largest problem-size exponent (n up to 4^maxk)")
		workers = fs.Int("workers", 0, "engine worker bound (0 = GOMAXPROCS); results do not depend on it")
		list    = fs.Bool("list", false, "list experiments and ablations, then exit")
		timing  = fs.Bool("time", false, "print per-experiment wall time and engine utilisation")
		format  = fs.String("format", "text", "output format: text | tsv | json")
		server  = fs.String("server", "", "cadaptived base URL; run remotely instead of in-process")
		batch   = fs.Bool("batch", false, "submit a durable batch job to -server instead of running cells one by one")
		seeds   = fs.Int("seeds", 1, "batch mode: number of consecutive seeds starting at -seed")
		maxkMin = fs.Int("maxk-min", 0, "batch mode: sweep maxk from this up to -maxk (0 = just -maxk)")
		jobID   = fs.String("job", "", "attach to an existing batch job on -server (resume waiting after a restart)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		rows, err := listExperiments(*server)
		if err != nil {
			return err
		}
		for _, e := range rows {
			fmt.Fprintf(stdout, "%-4s %-40s %s\n", e.ID, e.Source, e.Summary)
		}
		return nil
	}

	if *format != "text" && *format != "tsv" && *format != "json" {
		return fmt.Errorf("unknown format %q (want text, tsv or json)", *format)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d < 0", *workers)
	}
	if *server == "" {
		engine.SetSharedWorkers(*workers)
	} else if *workers != 0 {
		return errors.New("-workers applies to in-process runs; the server chose its own worker bound at startup")
	}

	cfg := core.Config{Seed: *seed, Trials: *trials, MaxK: *maxK}
	if err := cfg.Validate(); err != nil {
		var ce *core.ConfigError
		if errors.As(err, &ce) {
			if f, ok := flagForField[ce.Field]; ok {
				return fmt.Errorf("%s: %w", f, err)
			}
		}
		return err
	}

	if *batch || *jobID != "" {
		if *server == "" {
			return errors.New("-batch and -job need -server: jobs live on a cadaptived instance")
		}
		if *batch && *jobID != "" {
			return errors.New("-batch submits a new job and -job attaches to an existing one; pick one")
		}
		if *format == "json" {
			return errors.New("batch mode prints per-cell tables; use -format text or tsv")
		}
		return runBatch(context.Background(), stdout, batchArgs{
			server: *server, exp: *exp, cfg: cfg,
			seeds: *seeds, maxkMin: *maxkMin, jobID: *jobID, tsv: *format == "tsv",
		})
	}

	// The CLI and the cadaptived service share core.RunContext /
	// RunAllContext as their only run entry points, so the two front-ends
	// cannot drift apart in what a given (experiment, config, seed) means —
	// and in remote mode the server funnels into the same entry points, so
	// the tables below are byte-identical either way.
	ctx := context.Background()
	start := now()
	var tables []*core.Table
	var err error
	if *server != "" {
		tables, err = runRemote(ctx, *server, *exp, cfg)
	} else if *exp == "all" {
		tables, err = core.RunAllContext(ctx, cfg)
	} else {
		var t *core.Table
		if t, err = core.RunContext(ctx, *exp, cfg); err == nil {
			tables = []*core.Table{t}
		}
	}
	if err != nil {
		return err
	}
	end := now()
	wall := end.Sub(start)

	if *format == "json" {
		buf, err := core.NewSnapshot(cfg, tables, wall, end).MarshalIndentJSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(buf)
		return err
	}
	for _, t := range tables {
		if *format == "tsv" {
			fmt.Fprintln(stdout, t.FormatTSV())
		} else {
			fmt.Fprintln(stdout, t.Format())
		}
		if *timing {
			m := t.Metrics
			fmt.Fprintf(stdout, "[%s took %.1fs: %d cells on <=%d workers, utilisation %.0f%%]\n",
				t.ID, m.WallSeconds, m.Cells, m.Workers, m.Utilisation*100)
		}
	}
	if *timing {
		fmt.Fprintf(stdout, "[total %.1fs]\n", wall.Seconds())
	}
	return nil
}

// listExperiments resolves the -list rows: the local registry, or the
// server's /v1/experiments when -server is set (the two agree by
// construction, but asking the server verifies it is reachable).
func listExperiments(server string) ([]service.ExperimentInfo, error) {
	if server == "" {
		return service.ListExperiments(), nil
	}
	return service.NewClient(server).Experiments(context.Background())
}

// batchArgs is runBatch's bundle of the batch-relevant flags.
type batchArgs struct {
	server  string
	exp     string
	cfg     core.Config
	seeds   int
	maxkMin int
	jobID   string
	tsv     bool
}

// runBatch submits (or attaches to) a server-side batch job, waits for it
// to leave "running", and prints every completed cell's table in the job's
// canonical cell order. Poisoned cells are reported per cell and degrade
// the exit status — after the good tables have printed, because partial
// results are the point of graceful degradation.
func runBatch(ctx context.Context, stdout io.Writer, a batchArgs) error {
	c := service.NewClient(a.server)
	c.Seed = a.cfg.Seed // replayable retry jitter, same spirit as the runs

	var st *jobs.Status
	var err error
	if a.jobID != "" {
		st, err = c.Job(ctx, a.jobID, false)
		if err != nil {
			return fmt.Errorf("attaching to job %s on %s: %w", a.jobID, a.server, err)
		}
	} else {
		exps := []string{a.exp}
		if a.exp == "all" {
			infos, lerr := c.Experiments(ctx)
			if lerr != nil {
				return fmt.Errorf("listing experiments on %s: %w", a.server, lerr)
			}
			exps = exps[:0]
			for _, e := range infos {
				exps = append(exps, e.ID)
			}
		}
		maxkMax := a.cfg.MaxK
		maxkMin := a.maxkMin
		if maxkMin == 0 {
			maxkMin = maxkMax
		}
		st, err = c.SubmitJob(ctx, jobs.Spec{
			Experiments: exps,
			SeedStart:   a.cfg.Seed,
			SeedCount:   a.seeds,
			Trials:      a.cfg.Trials,
			MaxKMin:     maxkMin,
			MaxKMax:     maxkMax,
		})
		if err != nil {
			return fmt.Errorf("submitting job to %s: %w", a.server, err)
		}
	}
	fmt.Fprintf(stdout, "job %s: %d cells (%d completed) on %s\n", st.ID, st.Total, st.Completed, a.server)

	// WaitJob and Job return (nil, err) on failure and reassign st, so hold
	// the ID in a local — dereferencing st in the error branches would panic.
	id := st.ID
	if st.Status == jobs.JobRunning {
		if st, err = c.WaitJob(ctx, id); err != nil {
			return fmt.Errorf("waiting for job %s: %w", id, err)
		}
	}
	// One final fetch with tables: WaitJob polls without them.
	st, err = c.Job(ctx, id, true)
	if err != nil {
		return fmt.Errorf("fetching job %s tables: %w", id, err)
	}
	fmt.Fprintf(stdout, "job %s %s: %d/%d completed, %d poisoned, %d cancelled\n",
		st.ID, st.Status, st.Completed, st.Total, st.Poisoned, st.Cancelled)
	for _, cell := range st.Cells {
		switch cell.State {
		case "done":
			var t core.Table
			if err := json.Unmarshal(cell.Table, &t); err != nil {
				return fmt.Errorf("decoding %s table (seed=%d maxk=%d): %w", cell.Experiment, cell.Seed, cell.MaxK, err)
			}
			if a.tsv {
				fmt.Fprintln(stdout, t.FormatTSV())
			} else {
				fmt.Fprintln(stdout, t.Format())
			}
		case "poisoned":
			fmt.Fprintf(stdout, "[%s seed=%d maxk=%d poisoned after %d attempts: %s]\n",
				cell.Experiment, cell.Seed, cell.MaxK, cell.Attempts, cell.Error)
		}
	}
	if st.Status != jobs.JobCompleted {
		return fmt.Errorf("job %s ended %s (%d/%d cells completed)", st.ID, st.Status, st.Completed, st.Total)
	}
	return nil
}

// runRemote executes exp (or "all", in registry order) on a cadaptived
// instance and reconstructs the tables from the returned JSON bodies.
func runRemote(ctx context.Context, server, exp string, cfg core.Config) ([]*core.Table, error) {
	c := service.NewClient(server)
	c.Seed = cfg.Seed // replayable retry jitter, same spirit as the runs
	ids := []string{exp}
	if exp == "all" {
		infos, err := c.Experiments(ctx)
		if err != nil {
			return nil, fmt.Errorf("listing experiments on %s: %w", server, err)
		}
		ids = ids[:0]
		for _, e := range infos {
			ids = append(ids, e.ID)
		}
	}
	tables := make([]*core.Table, 0, len(ids))
	for _, id := range ids {
		resp, err := c.Run(ctx, id, cfg)
		if err != nil {
			return nil, fmt.Errorf("running %s on %s: %w", id, server, err)
		}
		var t core.Table
		if err := json.Unmarshal(resp.Table, &t); err != nil {
			return nil, fmt.Errorf("decoding %s table from %s: %w", id, server, err)
		}
		tables = append(tables, &t)
	}
	return tables, nil
}
