package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepositoryDocs runs the default check — docs/*.md and README.md
// against the code, plus must.txt coverage — so a document naming a
// deleted identifier, or new API surface left undocumented, fails
// tier-1 instead of a CI-only step.
func TestRepositoryDocs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), nil, &stdout, &stderr); code != 0 {
		t.Fatalf("docscheck: exit %d\n%s", code, stderr.String())
	}
}

// TestStaleReferenceFails: a reference to an identifier or member that
// does not exist is reported with its file and line; references that
// resolve, and backticked text that is not a package reference, pass.
func TestStaleReferenceFails(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "doc.md")
	text := "`store.Open` and `store.Store.Usage` exist, `cmd/darco` and `os.Exit` are not ours.\n" +
		"`store.NoSuchThing` is gone.\n" +
		"So is `store.Store.NoSuchMethod`.\n"
	if err := os.WriteFile(doc, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{doc}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, stderr.String())
	}
	for _, want := range []string{
		doc + ":2: store.NoSuchThing does not exist",
		doc + ":3: store.Store has no exported member NoSuchMethod",
		"docscheck: 2 stale or missing reference(s)",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}
