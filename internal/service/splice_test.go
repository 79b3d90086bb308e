package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// encodedRun is the reference for a /v1/run reply: the whole RunResponse
// through json.Encoder with writeJSON's indent settings.
func encodedRun(t *testing.T, resp RunResponse) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// awkwardTable needs every kind of escaping the encoder does in strings:
// HTML characters, quotes, backslashes, control and line-separator runes,
// plus non-ASCII text and an empty row.
func awkwardTable(id string) *core.Table {
	return &core.Table{
		ID:     id,
		Title:  "a <b> & \"c\" \\ d",
		Header: []string{"x<y", "Θ(log n)", "tab\there"},
		Rows:   [][]string{{"1", "\u2028", "é&"}, {}},
		Note:   "line\nbreak </script> \u2029",
	}
}

// TestRunResponseSpliceMatchesEncoder checks writeRun against encoding the
// whole response: every experiment's table plus awkwardTable, as a miss,
// a hit and a coalesced reply, under the real key and a key that needs
// escaping.
func TestRunResponseSpliceMatchesEncoder(t *testing.T) {
	cfg := smokeConfig()
	tables, err := core.RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tables = append(tables, awkwardTable("E3"))
	flags := []struct{ cached, coalesced bool }{{false, false}, {true, false}, {false, true}}
	for _, tb := range tables {
		body, err := json.Marshal(tb)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{core.CacheKey(tb.ID, cfg), "k\"<&>\\\u2028é"} {
			for _, f := range flags {
				resp := RunResponse{
					SchemaVersion: core.SnapshotSchemaVersion,
					Key:           key,
					Cached:        f.cached,
					Coalesced:     f.coalesced,
					Experiment:    tb.ID,
					Config:        cfg,
				}
				rec := httptest.NewRecorder()
				writeRun(rec, resp, body)
				resp.Table = body
				want := encodedRun(t, resp)
				if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("%s key %q %+v: spliced reply differs from the encoder's\n got: %q\nwant: %q", tb.ID, key, f, got, want)
				}
				if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
					t.Fatalf("%s: status %d, content type %q", tb.ID, rec.Code, rec.Header().Get("Content-Type"))
				}
			}
		}
	}
}

// TestRunResponseSpliceOverHTTP drives the server: a miss, a hit, and a
// burst of identical requests that coalesce or hit, each reply compared
// byte for byte with the encoder's rendering of the envelope it carries.
func TestRunResponseSpliceOverHTTP(t *testing.T) {
	s := newTestServer(t, Options{})
	entered, release := make(chan struct{}), make(chan struct{})
	s.runFn = func(ctx context.Context, id string, cfg core.Config) (*core.Table, error) {
		if id == "E4" {
			close(entered)
			<-release
		}
		return awkwardTable(id), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(data []byte) RunResponse {
		t.Helper()
		var got RunResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(awkwardTable(got.Experiment))
		if err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		if err := json.Compact(&table, got.Table); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(table.Bytes(), body) {
			t.Fatalf("%s: table %s, want %s", got.Experiment, table.Bytes(), body)
		}
		if want := encodedRun(t, got); !bytes.Equal(data, want) {
			t.Fatalf("reply differs from the encoder's\n got: %q\nwant: %q", data, want)
		}
		return got
	}
	cfg := smokeConfig()
	for _, wantCached := range []bool{false, true} {
		_, data := postRun(t, ts, runBody(cfg, "E3"))
		if got := check(data); got.Cached != wantCached {
			t.Fatalf("cached = %v, want %v", got.Cached, wantCached)
		}
	}

	// The first E4 request holds its run open while the rest arrive.
	const clients = 6
	replies := make([][]byte, clients)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		_, replies[i] = postRun(t, ts, runBody(cfg, "E4"))
	}
	wg.Add(clients)
	go post(0)
	<-entered
	for i := 1; i < clients; i++ {
		go post(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	for _, data := range replies {
		check(data)
	}
}
