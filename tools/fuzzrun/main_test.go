package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// TestRun drives the command through its run seam: a clean sweep exits
// 0, an injected translator fault is caught, minimized and filed as one
// artifact with exit 1, and bad flags — an unknown matrix or fault
// included — are exit 2 before any program runs.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of stdout
	}{
		{"clean", []string{"-n", "1", "-seed", "1", "-configs", "smoke", "-out", ""}, 0, "clean"},
		{"fault caught", []string{"-n", "1", "-seed", "1", "-profile", "hot", "-fault", "bbm-drop-inc", "-out", dir},
			1, "minimized to"},
		{"unknown fault", []string{"-n", "1", "-fault", "no-such-fault", "-out", ""}, 2, ""},
		{"unknown matrix", []string{"-n", "1", "-configs", "huge", "-out", ""}, 2, ""},
		{"unknown profile", []string{"-n", "1", "-profile", "no-such-profile", "-out", ""}, 2, ""},
		{"bad flag", []string{"-no-such-flag"}, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout.String(), stderr.String())
			}
			if tc.code == 2 && stdout.Len() != 0 {
				t.Errorf("usage error wrote a report:\n%s", stdout.String())
			}
			if !strings.Contains(stdout.String(), tc.want) {
				t.Errorf("stdout lacks %q:\n%s", tc.want, stdout.String())
			}
		})
	}
	filed, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(filed) != 1 {
		t.Errorf("%d regression artifacts filed, want 1", len(filed))
	}
}
