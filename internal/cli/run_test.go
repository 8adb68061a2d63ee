package cli

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/darco"
	"repro/internal/store"
	"repro/internal/sweep"
)

// batch parses args into a fresh tool's batch flag block.
func batch(t *testing.T, args ...string) (*Tool, *Batch, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	var out, errw bytes.Buffer
	tool := New("test", &out, &errw)
	b := tool.BindBatch("", "", "")
	if _, ok := tool.Parse(args); !ok {
		t.Fatalf("parse %q: %s", args, errw.String())
	}
	return tool, b, &out, &errw
}

// TestRunUsageErrors: a selection that does not resolve is exit Usage
// with a one-line reason, and nothing runs or reaches stdout — the
// grid rejects it before any cell simulates.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		scale string
		refs  []string
	}{
		{"0.05", []string{"no.such.benchmark"}},
		{"0.05", []string{"429.mcf", "429.mcf"}},
		{"0.05", []string{"429.mcf", ""}},
		{"-1", []string{"429.mcf"}},
		{"NaN", []string{"429.mcf"}},
		{"0.05", nil},
	} {
		tool, b, out, errw := batch(t, "-scale", tc.scale)
		ran := false
		code := b.Run(context.Background(), tool, darco.DefaultConfig(), tc.refs,
			func([]sweep.Row) { ran = true },
			darco.WithEvents(func(ev darco.Event) { ran = true }))
		if code != Usage || ran || out.Len() != 0 {
			t.Errorf("scale %s, refs %q: exit %d, ran %v, stdout %q; want exit %d, nothing run",
				tc.scale, tc.refs, code, ran, out.String(), Usage)
		}
		if !strings.HasPrefix(errw.String(), "test: ") || strings.Count(errw.String(), "\n") != 1 {
			t.Errorf("scale %s, refs %q: stderr is not a one-line reason: %q", tc.scale, tc.refs, errw.String())
		}
	}
}

// TestRunResumesFromStore: a batch is a grid, so a session with a
// persistent store resumes it with no code of its own — a second run
// of the same selection on the same store simulates nothing and emits
// the same records byte for byte.
func TestRunResumesFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func() (stdout string, started int) {
		tool, b, out, errw := batch(t, "-scale", "0.05", "-cosim=false", "-json")
		cfg, err := b.Config(darco.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		code := b.Run(context.Background(), tool, cfg, b.Refs("429.mcf,470.lbm"), nil,
			darco.WithStore(st), darco.WithEvents(func(ev darco.Event) {
				if ev.Kind == darco.EventStarted {
					started++
				}
			}))
		if code != OK {
			t.Fatalf("exit %d: %s", code, errw.String())
		}
		return out.String(), started
	}
	first, cold := run()
	second, warm := run()
	if cold != 2 || warm != 0 {
		t.Errorf("started %d runs cold and %d warm, want 2 and 0", cold, warm)
	}
	if first != second {
		t.Error("the store-served records differ from the simulated ones")
	}
	recs, err := darco.DecodeRecords(strings.NewReader(first))
	if err != nil || len(recs) != 2 || recs[0].Benchmark != "429.mcf" || recs[1].Benchmark != "470.lbm" {
		t.Fatalf("records %+v (%v), want 429.mcf then 470.lbm", recs, err)
	}
	for _, rec := range recs {
		if rec.Scale != 0.05 || rec.Mode != "shared" || rec.Result == nil || rec.Error != "" {
			t.Errorf("record %s: scale %g, mode %q, result %v, error %q", rec.Benchmark, rec.Scale, rec.Mode, rec.Result != nil, rec.Error)
		}
	}
}
