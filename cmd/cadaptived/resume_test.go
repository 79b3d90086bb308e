package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
)

// TestDaemonHelper is not a test: it is the daemon half of the kill/restart
// smoke below, re-executing this test binary as a real cadaptived process so
// SIGKILL hits an actual journal-backed server, not an in-process stand-in.
func TestDaemonHelper(t *testing.T) {
	args := os.Getenv("CADAPTIVED_TEST_DAEMON_ARGS")
	if args == "" {
		t.Skip("helper process for TestDaemonKillRestartResume")
	}
	cfg, err := parseFlags(strings.Split(args, "\x1f"))
	if err != nil {
		t.Fatalf("helper flags: %v", err)
	}
	if err := run(cfg); err != nil {
		t.Fatalf("helper run: %v", err)
	}
}

// startDaemon launches the helper daemon on a fresh port against dir and
// waits for /healthz; extra appends daemon flags (e.g. chaos latency).
func startDaemon(t *testing.T, dir string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	// Grab a free port, then hand it to the child. The tiny close-to-bind
	// window is acceptable for a test on a loopback interface.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	args := append([]string{"-addr", addr, "-jobs-dir", dir, "-cache", "0", "-cache-bytes", "0"}, extra...)
	cmd := exec.Command(os.Args[0], "-test.run", "^TestDaemonHelper$", "-test.v=false")
	cmd.Env = append(os.Environ(), "CADAPTIVED_TEST_DAEMON_ARGS="+strings.Join(args, "\x1f"))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, base
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("daemon at %s never became healthy: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonKillRestartResume is the end-to-end durability smoke: SIGKILL a
// real cadaptived mid-job — no shutdown path, no flushes beyond the
// journal's own per-record fsync — restart it on the same -jobs-dir, and the
// job must finish completely, recomputing only the cells the kill destroyed.
func TestDaemonKillRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon subprocesses")
	}
	dir := t.TempDir()
	const cells = 6

	// Chaos latency on jobs.cell paces the job (~100ms per cell attempt) so
	// the kill lands mid-flight with some cells journaled and some not.
	cmd, base := startDaemon(t, dir, "-chaos-spec", "jobs.cell:latency:1:100ms")
	c := service.NewClient(base)
	st, err := c.SubmitJob(context.Background(), jobs.Spec{
		Experiments: []string{"E7"}, // reads every config field: one key per cell
		SeedStart:   1, SeedCount: cells,
		Trials:  2,
		MaxKMin: 4, MaxKMax: 4,
	})
	if err != nil {
		cmd.Process.Kill()
		t.Fatalf("submit: %v", err)
	}

	// Kill the instant some — but not all — cells are durably complete.
	var before *jobs.Status
	for deadline := time.Now().Add(10 * time.Second); ; {
		before, err = c.Job(context.Background(), st.ID, false)
		if err == nil && before.Completed >= 2 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("job never reached 2 completed cells (last: %+v, err: %v)", before, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if before.Completed >= cells {
		cmd.Process.Kill()
		t.Fatalf("job finished before the kill (%+v); the smoke proved nothing", before)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no handlers, no drain
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart on the same journal dir, full speed. The restored job must run
	// to full completion without a fresh submission.
	cmd2, base2 := startDaemon(t, dir)
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	c2 := service.NewClient(base2)
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	after, err := c2.WaitJob(wctx, st.ID)
	if err != nil {
		t.Fatalf("resumed job: %v", err)
	}
	if after.Status != jobs.JobCompleted || after.Completed != cells {
		t.Fatalf("resumed job finished %+v, want %d/%d completed", after, cells, cells)
	}

	// The journal must have spared the pre-kill cells: the restarted server's
	// run path sees only the missing ones (status polls don't touch it).
	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Service struct {
			Requests int64 `json:"requests"`
		} `json:"service"`
	}
	if err := jsonDecode(resp, &m); err != nil {
		t.Fatal(err)
	}
	if reran := m.Service.Requests; reran < 1 || reran > int64(cells-before.Completed) {
		t.Errorf("restarted server ran %d cells, want 1..%d (journal had >= %d of %d cells)",
			reran, cells-before.Completed, before.Completed, cells)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
