package tol

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestStaticModesMarshalMatchesMap: StaticModes encodes to exactly the
// bytes encoding/json writes for the plain map, whose keys sort as
// decimal strings. The maps mix keys of every length from 1 to 10
// digits with the boundaries and zero-extension chains (1, 10, 100,
// …), where string order and integer order part; every key a committed
// golden holds has nine digits.
func TestStaticModesMarshalMatchesMap(t *testing.T) {
	edges := []uint32{0, 9, 10, 99, 100, 999, 1000, 1e9 - 1, 1e9, math.MaxUint32,
		1, 10, 100, 1000, 10000, 1e5, 1e6, 1e7, 1e8, 2, 20, 200, 2000, 4294967, 429496729}
	rng := rand.New(rand.NewSource(1))
	cases := []map[uint32]Mode{nil, {}, {7: ModeSBM}}
	for range 50 {
		m := map[uint32]Mode{}
		for _, pc := range edges {
			if rng.Intn(2) == 0 {
				m[pc] = Mode(rng.Intn(256))
			}
		}
		for range rng.Intn(300) {
			pc := uint32(rng.Int63n(int64(pow10[1+rng.Intn(10)])))
			m[pc] = Mode(rng.Intn(4))
		}
		cases = append(cases, m)
	}
	for _, m := range cases {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(StaticModes(m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("StaticModes encodes\n%s\nencoding/json encodes\n%s", got, want)
		}
		var back StaticModes
		if err := json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(map[uint32]Mode(back), m) {
			t.Fatalf("round trip of %s: %v, %v", got, back, err)
		}
	}
}

// FuzzStaticModesJSON: for any bytes, decoding into StaticModes (through
// encoding/json and by a direct UnmarshalJSON call) and into the plain
// map, each from nil and from a pre-filled map, gives equal maps and
// equal error-ness, and never panics.
func FuzzStaticModesJSON(f *testing.F) {
	for _, seed := range []string{
		`{"0":1,"1":2,"10":3,"100":1,"4294967295":255,"9":0}`,
		"{\n  \"100\": 1,\r\n\t\"20\" :\t2 ,\"3\":3\n}\n",
		`null`, `{}`, ` { } `, `{"5":1,"5":2}`, `{"01":1}`, `{"1":256}`, `{"1":-1}`,
		`{"1":1.0}`, `{"1":3e0}`, `{"-0":1}`, `{"1":1}`, `{"12345678901":1}`,
		`{"4294967296":1}`, `{"1":1,}`, `{"1":1`, `[]`, `{"1":1} x`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, prefill := range []map[uint32]Mode{nil, {1: ModeIM, 100: ModeSBM, 7: ModeBBM}} {
			plain := maps.Clone(prefill)
			errPlain := json.Unmarshal(data, &plain)
			fast := StaticModes(maps.Clone(prefill))
			errFast := json.Unmarshal(data, &fast)
			if (errPlain == nil) != (errFast == nil) {
				t.Fatalf("%q: encoding/json error %v, StaticModes error %v", data, errPlain, errFast)
			}
			if !reflect.DeepEqual(map[uint32]Mode(fast), plain) {
				t.Fatalf("%q: encoding/json decodes %v, StaticModes decodes %v", data, plain, fast)
			}
			direct := StaticModes(maps.Clone(prefill))
			errDirect := direct.UnmarshalJSON(data)
			if (errPlain == nil) != (errDirect == nil) || !reflect.DeepEqual(map[uint32]Mode(direct), plain) {
				t.Fatalf("%q: encoding/json decodes %v (error %v), UnmarshalJSON %v (error %v)",
					data, plain, errPlain, direct, errDirect)
			}
		}
	})
}
