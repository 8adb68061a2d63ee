// Package store is the content-addressed persistent result store of
// the serving layer: a directory of JSON records filed under the
// darco Session memo key (Job.Key — program fingerprint ×
// resolved-config hash), so simulation results survive process
// restarts and are shared by every replica pointed at the same
// directory.
//
// Layout and guarantees:
//
//   - One entry per file, named by the SHA-256 of the memo key (the
//     content address — keys contain benchmark names with arbitrary
//     characters, so they never appear in filenames). Each file is an
//     Entry envelope: the key in clear plus the darco.Record as raw
//     JSON.
//   - Writes are atomic: an entry is written to a temporary file in
//     the store directory and renamed into place, so readers (and
//     concurrent writers of the same key — last writer wins) never
//     observe a torn record.
//   - Reads are tolerant: a corrupt or foreign file is a cache miss
//     in Get and skipped by List, never a fatal error. A persistent
//     cache must survive partial damage; re-simulation repairs it.
//
// Store implements darco.ResultStore, so attaching persistence to a
// batch executor is darco.NewSession(darco.WithStore(st)).
package store

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/darco"
)

// entrySuffix is the filename suffix of committed store entries.
const entrySuffix = ".json"

// tmpPrefix marks in-flight atomic writes; readers ignore such files.
const tmpPrefix = ".tmp-"

// entryFormat versions the on-disk envelope.
const entryFormat = 1

// Entry is the on-disk envelope of one stored result: the memo key in
// clear (the filename only holds its hash) and the record as raw
// bytes, so a fetch can serve exactly what was stored.
type Entry struct {
	Format int             `json:"format"`
	Key    string          `json:"key"`
	Record json.RawMessage `json:"record"`
}

// Meta summarizes one store entry for listings.
type Meta struct {
	Key       string  `json:"key"`
	Addr      string  `json:"addr"`
	Benchmark string  `json:"benchmark"`
	Suite     string  `json:"suite,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	Mode      string  `json:"mode"`
	Bytes     int     `json:"bytes"`
}

// Store is a content-addressed result store over one directory. All
// methods are safe for concurrent use by any number of processes
// sharing the directory.
type Store struct {
	dir string
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Addr returns the content address of a memo key: the hex SHA-256 the
// entry is filed under.
func Addr(key string) string {
	sum := sha256.Sum256([]byte(key))
	return fmt.Sprintf("%x", sum)
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, Addr(key)+entrySuffix)
}

// Put persists the record under the memo key, atomically replacing any
// previous entry. Concurrent Puts of the same key are safe: each
// writes its own temporary file and the rename commits whole entries,
// so readers see one complete record (last writer wins — callers store
// deterministic results, so the winners are interchangeable).
func (s *Store) Put(key string, rec *darco.Record) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshal record for %q: %w", key, err)
	}
	return s.PutRaw(key, raw)
}

// PutRaw persists pre-marshaled record bytes under the memo key — the
// path used to mirror an entry byte-identically between stores.
func (s *Store) PutRaw(key string, record json.RawMessage) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	env, err := json.Marshal(Entry{Format: entryFormat, Key: key, Record: record})
	if err != nil {
		return fmt.Errorf("store: marshal entry for %q: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %q: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: write %q: %w", key, err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("store: write %q: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("store: commit %q: %w", key, err)
	}
	return nil
}

// readEntry reads and validates the entry file at path — the one
// place the tolerant-read rule lives. A missing file, unreadable JSON
// (a torn or truncated envelope), a wrong format, an empty record or a
// key whose hash does not match the filename all report ok=false with
// a nil error: corrupt or foreign is a miss, never fatal.
func readEntry(path string) (env Entry, ok bool, err error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Entry{}, false, nil
	}
	if err != nil {
		return Entry{}, false, fmt.Errorf("store: read entry: %w", err)
	}
	if json.Unmarshal(raw, &env) != nil || env.Format != entryFormat || len(env.Record) == 0 ||
		Addr(env.Key)+entrySuffix != filepath.Base(path) {
		return Entry{}, false, nil
	}
	return env, true, nil
}

// scan lists the directory's committed entry files; subdirectories,
// in-flight or leftover temporary files and foreign names are not
// entries.
func (s *Store) scan() ([]os.DirEntry, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return slices.DeleteFunc(ents, func(de os.DirEntry) bool {
		name := de.Name()
		return de.IsDir() || strings.HasPrefix(name, tmpPrefix) || !strings.HasSuffix(name, entrySuffix)
	}), nil
}

// GetRaw returns the stored record bytes for a memo key exactly as
// they were written — the byte-stable fetch path of the serving
// layer. A corrupt entry is a miss, not an error.
func (s *Store) GetRaw(key string) (json.RawMessage, bool, error) {
	env, ok, err := readEntry(s.path(key))
	if !ok || err != nil {
		return nil, false, err
	}
	s.touch(key)
	return env.Record, true, nil
}

// Get returns the decoded record for a memo key, reporting a miss with
// ok=false. Together with Put it implements darco.ResultStore, so a
// Session with this store serves restart-surviving cache hits. A
// corrupt entry is a miss, not an error.
func (s *Store) Get(key string) (*darco.Record, bool, error) {
	env, ok, err := readEntry(s.path(key))
	if !ok || err != nil {
		return nil, false, err
	}
	var rec darco.Record
	if err := json.Unmarshal(env.Record, &rec); err != nil {
		return nil, false, nil // corrupt record: miss, not fatal
	}
	s.touch(key)
	return &rec, true, nil
}

// GetRawByAddr returns the stored record bytes and memo key of the
// entry filed under a content address (the hex SHA-256 List reports) —
// the fetch path of the serving layer's /store endpoints, which never
// see raw memo keys. A corrupt or misfiled entry is a miss.
func (s *Store) GetRawByAddr(addr string) (record json.RawMessage, key string, ok bool, err error) {
	if addr == "" || strings.ContainsAny(addr, "/\\.") {
		return nil, "", false, nil // never escape the store directory
	}
	env, ok, err := readEntry(filepath.Join(s.dir, addr+entrySuffix))
	return env.Record, env.Key, ok, err
}

// Delete removes the entry of a memo key (a missing entry is not an
// error).
func (s *Store) Delete(key string) error {
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %q: %w", key, err)
	}
	return nil
}

// List enumerates the store's entries, sorted by benchmark then key.
// Corrupt or foreign files in the directory are skipped, so one
// damaged entry never hides the rest of the store.
func (s *Store) List() ([]Meta, error) {
	ents, err := s.scan()
	if err != nil {
		return nil, err
	}
	var out []Meta
	for _, de := range ents {
		env, ok, err := readEntry(filepath.Join(s.dir, de.Name()))
		if !ok || err != nil {
			continue // corrupt, foreign, unreadable or raced with eviction: skip
		}
		var rec darco.Record
		if err := json.Unmarshal(env.Record, &rec); err != nil {
			continue
		}
		out = append(out, Meta{
			Key:       env.Key,
			Addr:      strings.TrimSuffix(de.Name(), entrySuffix),
			Benchmark: rec.Benchmark,
			Suite:     rec.Suite,
			Scale:     rec.Scale,
			Mode:      rec.Mode,
			Bytes:     len(env.Record),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benchmark != out[j].Benchmark {
			return out[i].Benchmark < out[j].Benchmark
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// compile-time check: Store is a darco Session persistence hook.
var _ darco.ResultStore = (*Store)(nil)
