package workload

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/strictjson"
)

// The file source loads benchmark Specs from JSON, so new synthetic
// benchmarks can be defined without recompiling. A file holds either a
// single Spec object or an array of Specs; references select one:
//
//	file:mybench.json            single-spec file (or a one-element array)
//	file:mybenches.json#kernel7  entry "kernel7" of a multi-spec file
//
// Field names match the Spec struct ("Name", "Suite", "HotKernels",
// ...); Suite accepts the display names and the short aliases of
// ParseSuite. Unknown fields are rejected so typos surface instead of
// silently producing a default benchmark.
type fileSource struct{}

func (fileSource) Scheme() string { return "file" }

func (fileSource) Open(name string) (Program, error) {
	path, frag := name, ""
	if i := strings.IndexByte(name, '#'); i >= 0 {
		path, frag = name[:i], name[i+1:]
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: file source: %w", err)
	}
	defer f.Close()
	specs, err := decodeSpecs(f)
	if err != nil {
		return nil, fmt.Errorf("workload: file source %s: %w", path, err)
	}
	spec, err := selectSpec(specs, frag)
	if err != nil {
		return nil, fmt.Errorf("workload: file source %s: %w", path, err)
	}
	return SpecProgram{Spec: spec, Source: "file"}, nil
}

// decodeSpecs reads one Spec (see DecodeSpec) or an array of Specs
// through strictjson.Decode, validating each.
func decodeSpecs(r io.Reader) ([]Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '[' {
		s, err := DecodeSpec(data)
		if err != nil {
			return nil, err
		}
		return []Spec{s}, nil
	}
	var specs []Spec
	if err := strictjson.Decode(bytes.NewReader(data), &specs); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no specs defined")
	}
	for i := range specs {
		if err := checkSpec(i, specs[i]); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// checkSpec validates entry i of a decoded spec file.
func checkSpec(i int, s Spec) error {
	if s.Name == "" {
		return fmt.Errorf("spec %d has no Name", i)
	}
	return s.Validate()
}

// selectSpec picks the referenced entry: the fragment name when given,
// otherwise the file's sole spec.
func selectSpec(specs []Spec, frag string) (Spec, error) {
	if frag == "" {
		if len(specs) != 1 {
			names := make([]string, len(specs))
			for i, s := range specs {
				names[i] = s.Name
			}
			return Spec{}, fmt.Errorf("file defines %d specs; select one with #name (%s)",
				len(specs), strings.Join(names, ", "))
		}
		return specs[0], nil
	}
	for _, s := range specs {
		if s.Name == frag {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("no spec named %q", frag)
}
