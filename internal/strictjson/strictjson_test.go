package strictjson

import (
	"strings"
	"testing"
)

// TestDecode: one value decodes, whitespace may follow it, and a field
// the target lacks or anything else after the value is an error.
func TestDecode(t *testing.T) {
	type target struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	const value = `{"name": "429.mcf", "n": 3}`
	for _, c := range []struct {
		name, in string
		ok       bool
	}{
		{"as encoded", value, true},
		{"trailing whitespace", value + " \t\r\n\n", true},
		{"truncated object", value + ` {"garbage": tru`, false},
		{"extra brackets", value + "]]]", false},
		{"second value", value + ` {"name": "x"}`, false},
		{"unknown field", `{"name": "429.mcf", "n": 3, "no_such_field": true}`, false},
		{"empty", "", false},
	} {
		var got target
		err := Decode(strings.NewReader(c.in), &got)
		if c.ok && (err != nil || got != (target{"429.mcf", 3})) {
			t.Errorf("%s: got %+v, error %v; want the value", c.name, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: got %+v and no error; want an error", c.name, got)
		}
	}
}
