// Package strictjson is the one reader of JSON from outside the
// process. A file read as only its first value, or with a field this
// build does not know dropped, yields a result that looks valid and is
// wrong; Decode makes both an error. Callers keep their own error
// prefixes and validation.
package strictjson

import (
	"encoding/json"
	"errors"
	"io"
)

// Decode reads exactly one JSON value from r into v. A field v's type
// lacks is an error, and so is anything but whitespace after the value.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}
