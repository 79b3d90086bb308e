package core

import (
	"encoding/json"
	"time"
)

// SnapshotSchemaVersion identifies the JSON layout emitted by cadaptive
// -format json. Bump it on any breaking change to Snapshot, Table, or
// Metrics field names so committed BENCH_*.json files stay interpretable.
const SnapshotSchemaVersion = 1

// Snapshot is the versioned, machine-readable result of a run — the format
// committed as BENCH_*.json to track the perf trajectory. Rows are carried
// as the same formatted strings the text output prints, so a snapshot
// round-trips losslessly: unmarshalling and re-formatting reproduces the
// byte-identical tables.
type Snapshot struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedAt   string `json:"generated_at,omitempty"` // RFC 3339; empty in deterministic comparisons
	Config        Config `json:"config"`
	// TotalWallSeconds is the wall time of the whole run, which on a
	// multicore box is less than the sum of per-experiment wall times.
	TotalWallSeconds float64  `json:"total_wall_seconds"`
	Experiments      []*Table `json:"experiments"`
}

// NewSnapshot assembles a snapshot from a run's tables. The timestamp is
// injected by the caller rather than read here — this package produces the
// bodies that golden files and the service's content-addressed cache
// compare byte-for-byte, so it must never touch the wall clock itself. A
// zero generatedAt omits the field entirely (deterministic snapshots).
func NewSnapshot(cfg Config, tables []*Table, totalWall time.Duration, generatedAt time.Time) *Snapshot {
	gen := ""
	if !generatedAt.IsZero() {
		gen = generatedAt.UTC().Format(time.RFC3339)
	}
	return &Snapshot{
		SchemaVersion:    SnapshotSchemaVersion,
		GeneratedAt:      gen,
		Config:           cfg,
		TotalWallSeconds: totalWall.Seconds(),
		Experiments:      tables,
	}
}

// MarshalIndentJSON renders the snapshot as indented JSON with a trailing
// newline, ready to write to a BENCH_*.json file or stdout.
func (s *Snapshot) MarshalIndentJSON() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
