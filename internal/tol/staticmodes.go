package tol

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
)

// StaticModes maps each executed static guest instruction, by guest
// PC, to the highest mode that ever owned it (Figure 5a). It holds one
// entry per executed PC and is most of a record's bytes, so it has its
// own JSON codec. The bytes are exactly encoding/json's for a
// map[uint32]Mode (decimal string keys in string order), written and
// read without reflection. Input the encoder did not write is decoded
// by encoding/json, with its results and errors.
type StaticModes map[uint32]Mode

// pow10[i] is 10^i; a uint32 has at most ten decimal digits.
var pow10 = [11]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// maxEntryLen is the longest `"key":mode,` an entry encodes to.
const maxEntryLen = len(`"4294967295":255,`)

// MarshalJSON writes the entries in encoding/json's order: by key as a
// decimal string. Integers left-aligned to ten digits, ties broken by
// length (1 < 10 < 100), sort the same way, so each entry sorts as one
// uint64: the aligned key, then its digit count, then the mode.
func (m StaticModes) MarshalJSON() ([]byte, error) {
	if m == nil {
		return []byte("null"), nil
	}
	order := make([]uint64, 0, len(m))
	for pc, mode := range m {
		d := 1
		for d < 10 && uint64(pc) >= pow10[d] {
			d++
		}
		order = append(order, (uint64(pc)*pow10[10-d]<<4|uint64(d))<<8|uint64(mode))
	}
	slices.Sort(order)
	b := make([]byte, 0, 2+len(order)*maxEntryLen)
	b = append(b, '{')
	for i, e := range order {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendUint(b, e>>12/pow10[10-(e>>8&0xF)], 10)
		b = append(b, '"', ':')
		b = strconv.AppendUint(b, e&0xFF, 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON merges a JSON object into the map, allocating it when
// nil, as encoding/json does for a map[uint32]Mode. The form
// MarshalJSON writes, with JSON whitespace between tokens, is parsed
// directly: once to check and count it, then again to insert, so the
// map is only touched once the whole input has parsed. Anything else
// (null, escaped or zero-padded keys, out-of-range or non-integer
// numbers, malformed input) goes to encoding/json.
func (m *StaticModes) UnmarshalJSON(data []byte) error {
	n, ok := scanStaticModes(data, nil)
	if !ok {
		return json.Unmarshal(data, (*map[uint32]Mode)(m))
	}
	if *m == nil {
		*m = make(StaticModes, n)
	}
	scanStaticModes(data, *m)
	return nil
}

// scanStaticModes parses data as MarshalJSON's form of a non-empty
// map, inserting each entry into m when m is non-nil, and returns the
// entry count. ok is false, with m possibly part-filled, for any other
// input ({} included: encoding/json decodes it).
func scanStaticModes(data []byte, m StaticModes) (n int, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	for {
		if i == len(data) || data[i] != '"' {
			return 0, false
		}
		pc, j, ok := scanDigits(data, i+1, 10)
		if !ok || pc > math.MaxUint32 || j == len(data) || data[j] != '"' {
			return 0, false
		}
		i = skipSpace(data, j+1)
		if i == len(data) || data[i] != ':' {
			return 0, false
		}
		mode, j, ok := scanDigits(data, skipSpace(data, i+1), 3)
		if !ok || mode > math.MaxUint8 {
			return 0, false
		}
		if m != nil {
			m[uint32(pc)] = Mode(mode)
		}
		n++
		i = skipSpace(data, j)
		if i == len(data) {
			return 0, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return n, skipSpace(data, i+1) == len(data)
		default:
			return 0, false
		}
	}
}

// scanDigits reads an unsigned decimal of 1 to max digits, without a
// leading zero, at data[i:], and returns it and the index after it.
func scanDigits(data []byte, i, max int) (v uint64, end int, ok bool) {
	start := i
	for ; i < len(data) && i-start <= max && '0' <= data[i] && data[i] <= '9'; i++ {
		v = v*10 + uint64(data[i]-'0')
	}
	n := i - start
	return v, i, n > 0 && n <= max && (n == 1 || data[start] != '0')
}

// skipSpace returns the index of the first non-whitespace byte of
// data at or after i, or len(data).
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}
