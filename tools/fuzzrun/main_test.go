package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fuzz"
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

// TestJSONCoverageIsProgramSum: a sweep's -json coverage is the
// field-by-field sum of its programs' coverages. The sum is taken by
// reflection, so every Coverage field, present or future, is compared.
func TestJSONCoverageIsProgramSum(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-n", "2", "-seed", "1", "-out", "", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	var rep runReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Programs) != 2 {
		t.Fatalf("%d programs, want 2", len(rep.Programs))
	}
	var want fuzz.Coverage
	sum := reflect.ValueOf(&want).Elem()
	for _, pr := range rep.Programs {
		if pr.Report.Coverage.DynTotal == 0 {
			t.Fatalf("program %s has no coverage", pr.Name)
		}
		c := reflect.ValueOf(pr.Report.Coverage)
		for i := 0; i < c.NumField(); i++ {
			f := sum.Field(i)
			switch f.Kind() {
			case reflect.Int:
				f.SetInt(f.Int() + c.Field(i).Int())
			case reflect.Uint64:
				f.SetUint(f.Uint() + c.Field(i).Uint())
			case reflect.Map:
				if f.IsNil() {
					f.Set(reflect.MakeMap(f.Type()))
				}
				for it := c.Field(i).MapRange(); it.Next(); {
					var prev uint64
					if v := f.MapIndex(it.Key()); v.IsValid() {
						prev = v.Uint()
					}
					f.SetMapIndex(it.Key(), reflect.ValueOf(prev+it.Value().Uint()))
				}
			default:
				t.Fatalf("Coverage.%s has kind %s, which this test cannot sum", sum.Type().Field(i).Name, f.Kind())
			}
		}
	}
	if !reflect.DeepEqual(rep.Coverage, want) {
		t.Errorf("sweep coverage %+v, want the programs' sum %+v", rep.Coverage, want)
	}
}
