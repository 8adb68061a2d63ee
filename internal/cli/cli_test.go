package cli

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"
)

// TestRefs pins the reference canonicalisation every batch tool
// shares: comma-split, trimmed, empty lists skipped (no selection is
// nil — the callers' "use the default catalog"), catalog names
// redirected to the -isa frontend, concrete references left alone.
func TestRefs(t *testing.T) {
	for _, tc := range []struct {
		isa   string
		lists []string
		want  []string
	}{
		{"", []string{"", ""}, nil},
		{"", []string{"429.mcf, 470.lbm", "", "trace:a.json"}, []string{"429.mcf", "470.lbm", "trace:a.json"}},
		{"x86", []string{"synthetic:429.mcf"}, []string{"synthetic:429.mcf"}},
		{"rv32", []string{"429.mcf,synthetic:401.bzip2", "trace:a.json,phased:x+y"},
			[]string{"rv32:429.mcf", "rv32:401.bzip2", "trace:a.json", "phased:x+y"}},
	} {
		var out bytes.Buffer
		b := New("test", &out, &out).BindBatch("", "", "")
		b.Knobs.ISA = tc.isa
		if got := b.Refs(tc.lists...); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("isa %q, Refs(%q) = %q, want %q", tc.isa, tc.lists, got, tc.want)
		}
	}
}

func TestParseExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		ok   bool
	}{
		{[]string{"-jobs", "2"}, OK, true},
		{[]string{"-h"}, OK, false},
		{[]string{"-jobs", "two"}, Usage, false},
		{[]string{"-no-such-flag"}, Usage, false},
	} {
		var out, errw bytes.Buffer
		tool := New("test", &out, &errw)
		tool.BindBatch("", "", "")
		if code, ok := tool.Parse(tc.args); code != tc.code || ok != tc.ok {
			t.Errorf("Parse(%q) = %d, %v; want %d, %v", tc.args, code, ok, tc.code, tc.ok)
		}
		// Usage text goes to stderr, and only when parsing stops the tool.
		if quiet := errw.Len() == 0; out.Len() != 0 || quiet != tc.ok {
			t.Errorf("Parse(%q): stdout %q, stderr %q", tc.args, out.String(), errw.String())
		}
	}
}

func TestWithTimeout(t *testing.T) {
	ctx, cancel := WithTimeout(context.Background(), 0)
	if _, bounded := ctx.Deadline(); bounded {
		t.Error("-timeout 0 set a deadline")
	}
	cancel()
	if ctx.Err() == nil {
		t.Error("cancel did not cancel the unbounded context")
	}
	ctx, cancel = WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, bounded := ctx.Deadline(); !bounded {
		t.Error("-timeout 1h set no deadline")
	}
}
