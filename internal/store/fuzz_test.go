package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/darco"
)

// FuzzReadEntry writes arbitrary bytes as the entry file of one memo
// key and reads it through every reader of entry files: GetRaw,
// GetRawByAddr and List. Each must report a miss, or a record whose
// envelope key hashes to the file name — never an error for bad
// content, never a panic. Seeds: an entry as PutRaw commits it, the
// same entry truncated, under a foreign format, filed under another
// key's address, and with trailing garbage.
func FuzzReadEntry(f *testing.F) {
	const key = "462.libquantum|0123456789abcdef"
	entry := func(k string) []byte {
		st, err := Open(f.TempDir())
		if err != nil {
			f.Fatal(err)
		}
		rec, err := json.Marshal(darco.Record{Benchmark: "462.libquantum", Mode: "shared"})
		if err != nil {
			f.Fatal(err)
		}
		if err := st.PutRaw(k, rec); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(st.path(k))
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	committed := entry(key)
	f.Add(committed)
	f.Add(committed[:len(committed)/2])
	f.Add(bytes.Replace(committed, []byte(`"format":1`), []byte(`"format":2`), 1))
	f.Add(entry("470.lbm|0123456789abcdef"))
	f.Add(append(bytes.Clone(committed), "]]] {\"garbage\": tru"...))

	// One store per fuzz process; each input overwrites its one entry.
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	addr := Addr(key)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(st.Dir(), addr+entrySuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		raw, ok, err := st.GetRaw(key)
		if err != nil {
			t.Fatalf("GetRaw: %v", err)
		}
		byAddr, gotKey, okAddr, err := st.GetRawByAddr(addr)
		if err != nil {
			t.Fatalf("GetRawByAddr: %v", err)
		}
		if ok != okAddr || !bytes.Equal(raw, byAddr) {
			t.Fatalf("GetRaw hit=%v (%d bytes), GetRawByAddr hit=%v (%d bytes)", ok, len(raw), okAddr, len(byAddr))
		}
		if ok && (len(raw) == 0 || Addr(gotKey) != addr) {
			t.Fatalf("hit with a %d-byte record under key %q, filed at %s", len(raw), gotKey, addr)
		}
		metas, err := st.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		for _, m := range metas {
			if !ok || m.Addr != addr || Addr(m.Key) != addr || m.Bytes != len(raw) {
				t.Fatalf("List reports %+v; GetRaw hit=%v with %d bytes", m, ok, len(raw))
			}
		}
	})
}
