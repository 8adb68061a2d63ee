package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// garbageTails follow a valid input in the decoder fuzz seeds.
var garbageTails = []string{`]]] {"garbage": tru`, ` {"x":1} junk`}

// addSeeds adds each input to the corpus as is and with every garbage
// tail.
func addSeeds(f *testing.F, inputs [][]byte) {
	f.Helper()
	for _, in := range inputs {
		f.Add(in)
		for _, tail := range garbageTails {
			f.Add([]byte(string(in) + tail))
		}
	}
}

// FuzzReadTrace: a trace file comes from outside the process, so
// ReadTrace returns an error or a trace that passes Validate, and never
// panics. The committed regression traces seed it, and each must
// decode as committed.
func FuzzReadTrace(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "regressions", "*.trace.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed traces under testdata/regressions (%v)", err)
	}
	var inputs [][]byte
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := ReadTrace(bytes.NewReader(data)); err != nil {
			f.Fatalf("committed trace %s: %v", path, err)
		}
		inputs = append(inputs, data)
	}
	addSeeds(f, inputs)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoded trace fails Validate: %v", err)
		}
	})
}

// FuzzDecodeSpecs: a file: spec comes from outside the process, so
// decodeSpecs returns an error or specs that each pass Validate and
// name one of the four suites, and never panics. EncodeSpec of catalog
// entries seeds it, one spec and an array of two, plus one spec whose
// legacy numeric suite is out of range.
func FuzzDecodeSpecs(f *testing.F) {
	var inputs [][]byte
	for _, name := range []string{"429.mcf", "462.libquantum"} {
		s, err := ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		inputs = append(inputs, EncodeSpec(s))
	}
	inputs = append(inputs, []byte("["+string(inputs[0])+","+string(inputs[1])+"]"))
	inputs = append(inputs, bytes.Replace(inputs[0], []byte(`"SPEC-INT"`), []byte("7"), 1))
	addSeeds(f, inputs)
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := decodeSpecs(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("decoded spec %d fails Validate: %v", i, err)
			}
			if int(s.Suite) >= len(Suites()) {
				t.Fatalf("decoded spec %d has suite %d, outside the four suites", i, s.Suite)
			}
		}
	})
}
