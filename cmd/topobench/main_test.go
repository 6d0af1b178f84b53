package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"steelnet/internal/cli/clitest"
)

// tiny keeps the Fig. 6 grid to its smallest useful shape: one client
// count, a short horizon, one worker.
func tiny(extra ...string) []string {
	return append([]string{"-clients", "4", "-horizon", "100ms", "-workers", "1"}, extra...)
}

func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(tiny(), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if out == "" {
		t.Fatal("no figure output on stdout")
	}
	if !strings.Contains(out, "worst-case request loss") {
		t.Errorf("stdout missing loss summary:\n%s", out)
	}
}

// tinyCampus keeps the campus experiment small enough for unit tests:
// two 2-switch cells with one host each, a 2 ms horizon.
func tinyCampus(extra ...string) []string {
	return append([]string{
		"-campus", "-cells", "2", "-cell-switches", "2", "-cell-hosts", "1",
		"-spines", "1", "-horizon", "2ms",
	}, extra...)
}

func TestRunCampusSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(tinyCampus("-shards", "1"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"campus", "cell", "frames"} {
		if !strings.Contains(out, want) {
			t.Errorf("campus output missing %q:\n%s", want, out)
		}
	}
}

// TestRunCampusShardInvariant pins the CLI-level determinism contract:
// the full stdout of a campus run is byte-identical for -shards=1 and
// -shards=8.
func TestRunCampusShardInvariant(t *testing.T) {
	var serial, wide, stderr bytes.Buffer
	if code := run(tinyCampus("-shards", "1"), &serial, &stderr); code != 0 {
		t.Fatalf("-shards=1: exit %d, stderr:\n%s", code, stderr.String())
	}
	if code := run(tinyCampus("-shards", "8"), &wide, &stderr); code != 0 {
		t.Fatalf("-shards=8: exit %d, stderr:\n%s", code, stderr.String())
	}
	if serial.String() != wide.String() {
		t.Errorf("campus stdout differs across -shards:\n--- shards=1\n%s--- shards=8\n%s",
			serial.String(), wide.String())
	}
}

// TestRunCampusStatsProfileTable: -stats on a sharded campus run prints
// the per-shard profile table alongside the metrics snapshot.
func TestRunCampusStatsProfileTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(tinyCampus("-shards", "2", "-stats"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"shard profile:", "ev/chunk", "outbox msgs", "metrics", "sim_shard_events_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
}

// freeAddr reserves an ephemeral localhost port and releases it for the
// command under test to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunCampusObsEndpoint drives the live telemetry endpoint end to
// end: a campus run serving -obs-addr must expose shard metrics and the
// JSON shard profile over HTTP while (and shortly after) it runs, and
// its stdout must stay byte-identical to a run nobody watched.
func TestRunCampusObsEndpoint(t *testing.T) {
	addr := freeAddr(t)
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(tinyCampus("-shards", "2", "-obs-addr", addr, "-obs-linger", "2s"), &stdout, &stderr)
	}()

	base := "http://" + addr
	get := func(path string) (int, string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), err
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, body, err := get("/metrics"); err == nil && strings.Contains(body, "sim_shard_events_total") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("obs endpoint never served shard metrics")
		}
		time.Sleep(20 * time.Millisecond)
	}

	code, body, err := get("/shards")
	if err != nil || code != 200 {
		t.Fatalf("/shards: %d %v", code, err)
	}
	var prof struct {
		Shards   int              `json:"shards"`
		PerShard []map[string]any `json:"per_shard"`
	}
	if err := json.Unmarshal([]byte(body), &prof); err != nil {
		t.Fatalf("/shards not JSON: %v\n%s", err, body)
	}
	if prof.Shards != 3 || len(prof.PerShard) != 3 { // spine + 2 cells
		t.Fatalf("/shards profile = %+v, want 3 shards with lanes", prof)
	}
	if code, body, err := get("/healthz"); err != nil || code != 200 || !strings.Contains(body, `"ok":true`) {
		t.Fatalf("/healthz: %d %q %v", code, body, err)
	}

	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish")
	}
	if !strings.Contains(stderr.String(), "obs: serving on http://"+addr) {
		t.Errorf("listen notice missing from stderr:\n%s", stderr.String())
	}

	// Watching must not alter the experiment's stdout.
	var plain, plainErr bytes.Buffer
	if code := run(tinyCampus("-shards", "2"), &plain, &plainErr); code != 0 {
		t.Fatalf("plain run: exit %d, stderr:\n%s", code, plainErr.String())
	}
	if stdout.String() != plain.String() {
		t.Errorf("-obs-addr changed stdout:\n--- observed\n%s--- plain\n%s", stdout.String(), plain.String())
	}
}

// TestRunCampusRejectsBadSizes: a campus dimension below 1 is a usage
// error with a one-line message, not a silent default or an empty run.
func TestRunCampusRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-cells", "-1"},
		{"-cells", "0"},
		{"-cell-switches", "0"},
		{"-cell-hosts", "-2"},
		{"-spines", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tinyCampus(tc.flag, tc.value), &stdout, &stderr); code != 2 {
			t.Errorf("%s %s: exit %d, want 2", tc.flag, tc.value, code)
		}
		msg := stderr.String()
		if !strings.Contains(msg, "bad "+tc.flag+" "+tc.value) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%s %s: stderr = %q, want one line naming the flag and value", tc.flag, tc.value, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s: printed a table:\n%s", tc.flag, tc.value, stdout.String())
		}
	}
}

// TestRunBadUsage: a flag value the command cannot honour as given
// exits 2 with nothing on stdout, never a run on a value the user did
// not ask for (a non-positive -horizon used to run the scenario's own).
func TestRunBadUsage(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-resume", filepath.Join(t.TempDir(), "missing.ckpt")},
		{"-clients", "none"},
		tiny("-horizon", "-1s"),
		tiny("-horizon", "0"),
		tinyCampus("-horizon", "-1s"),
		tinyCampus("-horizon", "0"),
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q; want 2 and nothing", args, code, stdout.String())
		}
	}
}

// TestRunRefusesCheckpointFlags: neither the Fig. 6 grid nor the
// campus run keeps a checkpoint, so -checkpoint and -resume are
// unknown flags: exit 2, nothing on stdout, and no file written.
func TestRunRefusesCheckpointFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"grid", tiny()},
		{"campus", tinyCampus()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			existing := filepath.Join(dir, "existing.ckpt")
			if err := os.WriteFile(existing, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			fresh := filepath.Join(dir, "fresh.ckpt")
			for _, args := range [][]string{
				append(c.args[:len(c.args):len(c.args)], "-checkpoint", fresh),
				append(c.args[:len(c.args):len(c.args)], "-resume", existing),
			} {
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
					t.Errorf("run(%v) = %d, stdout %q; want 2 and nothing", args, code, stdout.String())
				}
				if msg := stderr.String(); !strings.HasPrefix(msg, "topobench: ") {
					t.Errorf("run(%v): stderr does not lead with %q:\n%s", args, "topobench: ", msg)
				}
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
				t.Errorf("run left %d entries in the directory (err %v), want only the existing file", len(entries), err)
			}
		})
	}
}

// TestSweepTelemetryWorkerInvariant pins topobench's side of the sweep
// telemetry contract; the breach count is the parent tree's.
func TestSweepTelemetryWorkerInvariant(t *testing.T) {
	clitest.SweepWorkerInvariant(t, run, tiny(), "2")
}
