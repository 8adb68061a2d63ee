package store

import (
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Touch marks an entry as recently used (best effort — a failure is
// invisible, it only ages the entry). Get and GetRaw call it on every
// hit, so the file modification time approximates last-access time and
// EvictToSize removes the coldest entries first.
func (s *Store) touch(key string) {
	now := time.Now()
	_ = os.Chtimes(s.path(key), now, now)
}

// Usage reports the store's committed entries and their total size in
// bytes (temporary files and foreign files are not counted).
func (s *Store) Usage() (entries int, bytes int64, err error) {
	ents, err := s.scan()
	if err != nil {
		return 0, 0, err
	}
	for _, de := range ents {
		info, err := de.Info()
		if err != nil {
			continue // raced with eviction
		}
		entries++
		bytes += info.Size()
	}
	return entries, bytes, nil
}

// EvictToSize enforces the store's size quota: while the committed
// entries exceed maxBytes, the least recently used entry (oldest file
// modification time — Get/GetRaw hits refresh it) is removed. A
// non-positive maxBytes disables the quota and removes nothing.
// Concurrent use is safe: a concurrently re-written entry simply
// survives with its new timestamp, and a concurrently removed one is
// skipped.
func (s *Store) EvictToSize(maxBytes int64) (removed int, freed int64, err error) {
	if maxBytes <= 0 {
		return 0, 0, nil
	}
	ents, err := s.scan()
	if err != nil {
		return 0, 0, err
	}
	type entry struct {
		name  string
		size  int64
		mtime time.Time
	}
	var all []entry
	var total int64
	for _, de := range ents {
		info, err := de.Info()
		if err != nil {
			continue
		}
		all = append(all, entry{name: de.Name(), size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].mtime.Equal(all[j].mtime) {
			return all[i].mtime.Before(all[j].mtime)
		}
		return all[i].name < all[j].name // deterministic tie-break
	})
	for _, e := range all {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(filepath.Join(s.dir, e.name)); err != nil {
			if os.IsNotExist(err) {
				total -= e.size
			}
			continue // raced or unremovable: count what we can
		}
		total -= e.size
		freed += e.size
		removed++
	}
	return removed, freed, nil
}
