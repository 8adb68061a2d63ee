package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// serverLog is a server's stderr: written from the server's goroutines,
// read by the test, and the source of the address the server bound.
type serverLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // receives the announced listen address
}

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, addr, ok := strings.Cut(string(p), "listening on "); ok {
		l.addr <- strings.TrimSpace(addr)
	}
	return l.buf.Write(p)
}

func (l *serverLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startServer runs server mode in-process on a free loopback port and
// returns its base URL. stop cancels its context — what SIGINT/SIGTERM
// do through cli.Main — and returns the exit code and the log once the
// server has drained.
func startServer(t *testing.T, args ...string) (url string, stop func() (int, string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	log := &serverLog{addr: make(chan string, 1)}
	exit := make(chan int, 1)
	go func() { exit <- run(ctx, append([]string{"-listen", "127.0.0.1:0"}, args...), io.Discard, log) }()
	stop = sync.OnceValues(func() (int, string) {
		cancel()
		return <-exit, log.String()
	})
	t.Cleanup(func() { stop() })
	select {
	case addr := <-log.addr:
		return "http://" + addr, stop
	case code := <-exit:
		t.Fatalf("server exited %d before listening: %s", code, log)
	case <-time.After(30 * time.Second):
		t.Fatalf("server never announced its address: %s", log)
	}
	return "", nil
}

// client runs one client-mode invocation against the server at url.
func client(url string, args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(context.Background(), append([]string{"-server", url}, args...), &out, &errw)
	return code, out.String(), errw.String()
}

// TestSubmitSurvivesRestart is the serving layer's acceptance path
// through the flags: a job submitted to a fresh server simulates; after
// a clean drain, a second server on the same -store serves the same
// submission from the store, byte-identically, without simulating.
func TestSubmitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	submit := []string{"-submit", "synthetic:462.libquantum", "-scale", "0.25", "-tenant", "ci", "-timeout", "5m"}

	url, stop := startServer(t, "-store", dir)
	code, first, stderr := client(url, submit...)
	if code != 0 || !strings.Contains(stderr, "event done") {
		t.Fatalf("first submit: exit %d, stderr:\n%s", code, stderr)
	}
	var rec struct{ Benchmark, Error string }
	if err := json.Unmarshal([]byte(first), &rec); err != nil || rec.Benchmark != "462.libquantum" || rec.Error != "" {
		t.Fatalf("first submit printed %v / %+v, want the terminal record", err, rec)
	}

	// The query flags, against the server that just ran the job.
	code, stdout, stderr := client(url, "-health")
	var h serve.Health
	if err := json.Unmarshal([]byte(stdout), &h); code != 0 || err != nil || h.Status != "ok" || !h.Store || h.Jobs != 1 {
		t.Errorf("-health: exit %d, %v, %+v: %s", code, err, h, stderr)
	}
	for tenant, want := range map[string]int{"ci": 1, "a&b c": 0} {
		code, stdout, stderr = client(url, "-jobs-list", "-tenant", tenant)
		var jobs []serve.JobStatus
		if err := json.Unmarshal([]byte(stdout), &jobs); code != 0 || err != nil || len(jobs) != want {
			t.Errorf("-jobs-list -tenant %q: exit %d, %v, %d jobs, want %d: %s", tenant, code, err, len(jobs), want, stderr)
		}
	}
	code, stdout, stderr = client(url, "-store-list")
	var entries []json.RawMessage
	if err := json.Unmarshal([]byte(stdout), &entries); code != 0 || err != nil || len(entries) != 1 {
		t.Errorf("-store-list: exit %d, %v, %d entries, want 1: %s", code, err, len(entries), stderr)
	}
	// A finished job is past cancelling: the server's refusal is exit 1.
	if code, stdout, stderr = client(url, "-cancel", "j-000001"); code != 1 || stdout != "" || !strings.Contains(stderr, "409") {
		t.Errorf("-cancel of a finished job: exit %d, stdout %q, stderr %q; want exit 1 on the 409", code, stdout, stderr)
	}

	if code, log := stop(); code != 0 || !strings.Contains(log, "draining") {
		t.Fatalf("first server: exit %d after cancel, log:\n%s", code, log)
	}
	if code, _, _ := client(url, "-health", "-timeout", "5s"); code != 1 {
		t.Errorf("-health against a stopped server: exit %d, want 1", code)
	}

	url, stop = startServer(t, "-store", dir)
	code, second, stderr := client(url, submit...)
	if code != 0 || !strings.Contains(stderr, "event cached") || strings.Contains(stderr, "event started") {
		t.Fatalf("second submit: exit %d, want a cached event and no started event:\n%s", code, stderr)
	}
	if second != first {
		t.Error("record differs across the restart")
	}
	if code, log := stop(); code != 0 {
		t.Fatalf("second server: exit %d, log:\n%s", code, log)
	}
}

// TestUsageAndBindErrors: client flags need -server and an action
// (exit 2); a -listen address that cannot be bound is exit 1 and never
// announced as listening.
func TestUsageAndBindErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-health"},
		{"-submit", "synthetic:429.mcf"},
		{"-jobs-list"},
		{"-cancel", "j-000001"},
		{"-server", "http://127.0.0.1:1"},
	} {
		var out, errw bytes.Buffer
		if code := run(context.Background(), args, &out, &errw); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, out.String())
		}
		if msg := errw.String(); !strings.HasPrefix(msg, "darco-serve: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr is not a one-line reason: %q", args, msg)
		}
	}
	var out, errw bytes.Buffer
	code := run(context.Background(), []string{"-listen", "127.0.0.1:99999"}, &out, &errw)
	if code != 1 || strings.Contains(errw.String(), "listening on") {
		t.Errorf("unbindable -listen: exit %d, stderr %q; want exit 1 without a listening line", code, errw.String())
	}
}
