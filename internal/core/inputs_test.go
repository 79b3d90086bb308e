package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestRegisterRejectsUndeclaredInputs: an experiment without a valid input
// declaration never reaches the registry, and every registered one has one.
func TestRegisterRejectsUndeclaredInputs(t *testing.T) {
	run := func(Config) (*Table, error) { return &Table{}, nil }
	for name, in := range map[string]Inputs{
		"undeclared":        0,
		"none plus a field": InputNone | InputSeed,
		"unknown bit":       InputMaxK | 1<<6,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("register accepted an experiment whose input set is %s (%#x)", name, uint8(in))
				}
			}()
			register(Experiment{ID: "E999", Inputs: in, Run: run})
		}()
		if _, ok := Lookup("E999"); ok {
			t.Fatalf("rejected experiment (%s) was left in the registry", name)
		}
	}
	for _, e := range Experiments() {
		if !e.Inputs.valid() {
			t.Errorf("%s registered with input set %#x", e.ID, uint8(e.Inputs))
		}
	}
}

// TestE10SamplesMoveWithSeed: E10's table reads 0 violations at every
// seed, so TestSeedTablesGolden cannot see whether E10 reads Config.Seed.
// Its sampled trials can: under E10's declared inputs, two seeds must
// sample different trials, which fails if the declaration drops Seed.
func TestE10SamplesMoveWithSeed(t *testing.T) {
	e, ok := Lookup("E10")
	if !ok {
		t.Fatal("E10 is not registered")
	}
	sample := func(seed uint64) []e10Trial {
		return e10Trials(e.Inputs.project(Config{Seed: seed, Trials: 1, MaxK: 4}))
	}
	a, b := sample(1), sample(2)
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("sampled %d and %d trials at trials=1, want 100 each", len(a), len(b))
	}
	if reflect.DeepEqual(a, b) {
		t.Error("E10 sampled the same trials at seeds 1 and 2: its declared inputs drop Seed")
	}
	if !reflect.DeepEqual(a, sample(1)) {
		t.Error("E10's samples at one seed differ between calls")
	}
}

// TestCacheKeyPinnedForFullInputs pins the key of an experiment that reads
// every field to the value it had before experiments declared inputs, so
// job journals keyed under the old scheme keep resuming.
func TestCacheKeyPinnedForFullInputs(t *testing.T) {
	const want = "15aa061ef3bb5861de68ea6dce1cd855b93347821d53a5f524775a5661de5160"
	if got := CacheKey("E3", DefaultConfig()); got != want {
		t.Errorf("CacheKey(E3, DefaultConfig()) = %s, want %s", got, want)
	}
}

// TestRunTimedProjectsConfig: the runner sees only its declared fields,
// the undeclared ones read as 0, and the run keeps its context.
func TestRunTimedProjectsConfig(t *testing.T) {
	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "run")
	var seen Config
	e := Experiment{ID: "E999", Inputs: InputMaxK, Run: func(c Config) (*Table, error) {
		seen = c
		return &Table{}, nil
	}}
	if _, err := runTimed(e, smallConfig().WithContext(ctx)); err != nil {
		t.Fatal(err)
	}
	if maxK := smallConfig().MaxK; seen.Seed != 0 || seen.Trials != 0 || seen.MaxK != maxK {
		t.Errorf("runner saw seed=%d trials=%d maxk=%d, want seed=0 trials=0 maxk=%d",
			seen.Seed, seen.Trials, seen.MaxK, maxK)
	}
	if seen.Context().Value(ctxKey{}) != "run" {
		t.Error("projection dropped the run's context")
	}
}

// TestInputNamesMatchConfigTags: Inputs.Names speaks the request's JSON
// field names, so a client reading /v1/experiments can map them onto the
// config it sends.
func TestInputNamesMatchConfigTags(t *testing.T) {
	all := InputSeed | InputTrials | InputMaxK
	var tags []string
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		if f := ct.Field(i); f.IsExported() {
			tags = append(tags, strings.Split(f.Tag.Get("json"), ",")[0])
		}
	}
	if got := all.Names(); !reflect.DeepEqual(got, tags) {
		t.Errorf("Names() = %v, want the Config JSON tags %v", got, tags)
	}
	if got := InputNone.Names(); got == nil || len(got) != 0 {
		t.Errorf("InputNone.Names() = %#v, want an empty non-nil slice", got)
	}
}
