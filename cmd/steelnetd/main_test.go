package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"steelnet/internal/steelnetd"
)

const bootSpec = `{"id":"boot","run":{"seed":1,"horizon":400000000,"slice":50000000,"slo":"latency:*<1µs"},"rules":"loss:*>0.1->kafka:alerts"}`

func TestRunWaitMode(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "publish")
	var out, errOut strings.Builder
	code := run([]string{
		"-listen", "", "-wait",
		"-publish-log", prefix,
		"-run", bootSpec,
	}, &out, &errOut, nil)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), `started run "boot"`) {
		t.Errorf("stderr missing the start line:\n%s", errOut.String())
	}
	kafkaLog := prefix + ".kafka.jsonl"
	b, err := os.ReadFile(kafkaLog)
	if err != nil {
		t.Fatalf("publish log not written: %v", err)
	}
	if !strings.Contains(string(b), `"rule":"loss:*>0.1->kafka:alerts"`) {
		t.Errorf("kafka log missing the firing:\n%s", b)
	}
	if _, err := os.Stat(prefix + ".mqtt.jsonl"); err != nil {
		t.Errorf("mqtt log not written: %v", err)
	}
}

func TestRunSpecFromFile(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(bootSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-listen", "", "-wait", "-run", "@" + specPath}, &out, &errOut, nil); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), `started run "boot"`) {
		t.Errorf("stderr:\n%s", errOut.String())
	}
}

func TestRunServeAndShutdown(t *testing.T) {
	ready := make(chan *steelnetd.Server, 1)
	done := make(chan int, 1)
	var out, errOut strings.Builder
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-run", bootSpec}, &out, &errOut, ready)
	}()
	srv := <-ready
	if srv == nil {
		t.Fatal("ready delivered a nil server")
	}
	resp, err := http.Get("http://" + srv.Addr() + "/runs/boot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/boot over the daemon: %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after Close")
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"nothing to do", []string{"-listen", ""}, 2},
		{"bad flag", []string{"-bogus"}, 2},
		{"bad spec json", []string{"-listen", "", "-wait", "-run", "{not json"}, 2},
		{"missing spec file", []string{"-listen", "", "-wait", "-run", "@/nosuch/spec.json"}, 2},
		{"bad rule in spec", []string{"-listen", "", "-wait", "-run", `{"run":{"seed":1},"rules":"bogus:*>1->kafka:t"}`}, 2},
		{"misspelt run field", []string{"-listen", "", "-wait", "-run", `{"run":{"horizn":100000000,"slice":50000000}}`}, 2},
		{"misspelt spec field", []string{"-listen", "", "-wait", "-run",
			`{"run":{"horizon":100000000,"slice":50000000},"rule":"loss:*>0.5->kafka:a"}`}, 2},
		{"pause requested", []string{"-listen", "", "-wait", "-run",
			`{"run":{"horizon":100000000,"slice":50000000},"stop_after":1}`}, 2},
		{"bad listen addr", []string{"-listen", "256.0.0.1:0"}, 1},
		{"negative max-concurrent", []string{"-listen", "", "-wait", "-max-concurrent", "-3",
			"-run", `{"run":{"seed":1,"horizon":100000000,"slice":50000000}}`}, 2},
	}
	for _, c := range cases {
		var out, errOut strings.Builder
		if code := run(c.args, &out, &errOut, nil); code != c.code {
			t.Errorf("%s: exit %d, want %d; stderr:\n%s", c.name, code, c.code, errOut.String())
		}
		if c.code == 2 && out.Len() != 0 {
			t.Errorf("%s: printed to stdout:\n%s", c.name, out.String())
		}
	}
}

func TestRunJournalAndTraceDumps(t *testing.T) {
	dir := t.TempDir()
	dump := func(tag string) (journal, trace string) {
		t.Helper()
		jp := filepath.Join(dir, tag+".journal.jsonl")
		tp := filepath.Join(dir, tag+".trace.json")
		var out, errOut strings.Builder
		code := run([]string{
			"-listen", "", "-wait",
			"-journal-log", jp,
			"-trace", tp,
			"-run", bootSpec,
		}, &out, &errOut, nil)
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
		}
		jb, err := os.ReadFile(jp)
		if err != nil {
			t.Fatalf("journal not written: %v", err)
		}
		tb, err := os.ReadFile(tp)
		if err != nil {
			t.Fatalf("trace not written: %v", err)
		}
		return string(jb), string(tb)
	}
	j1, tr := dump("a")
	for _, want := range []string{`"event":"created"`, `"event":"started"`, `"event":"done"`, `"seq":1`} {
		if !strings.Contains(j1, want) {
			t.Errorf("journal lacks %s:\n%s", want, j1)
		}
	}
	for _, want := range []string{`"steelnetd"`, `"run/boot"`, `"name":"slice"`} {
		if !strings.Contains(tr, want) {
			t.Errorf("trace lacks %s", want)
		}
	}
	// The lifecycle journal is a pure function of the boot specs: a rerun
	// dumps byte-identical JSONL.
	j2, _ := dump("b")
	if j1 != j2 {
		t.Errorf("journal differs across reruns:\n--- a\n%s\n--- b\n%s", j1, j2)
	}
}

func TestRunJournalLogFailure(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-listen", "", "-wait",
		"-journal-log", "/nosuch/dir/journal.jsonl",
		"-run", bootSpec,
	}, &out, &errOut, nil)
	if code != 1 {
		t.Fatalf("exit %d with an unwritable journal-log path", code)
	}
}

func TestRunPublishLogFailure(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-listen", "", "-wait",
		"-publish-log", "/nosuch/dir/publish",
		"-run", bootSpec,
	}, &out, &errOut, nil)
	if code != 1 {
		t.Fatalf("exit %d with an unwritable publish-log prefix", code)
	}
}
