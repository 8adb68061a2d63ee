// Package registry is the one name→value registration idiom of the
// infrastructure: optimization passes, eviction and promotion
// policies, workload sources and guest-ISA frontends all plug in
// through a Registry. Registration normally happens in init functions,
// but a Registry is safe for concurrent use, so an out-of-tree
// Register racing session workers' lookups is well defined. Name
// validation and the "unknown X" error text stay with each caller.
package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Registry maps unique names to values of one kind.
type Registry[T any] struct {
	dupFormat string
	mu        sync.RWMutex
	values    map[string]T
	order     []string
}

// New returns an empty registry. dupFormat is the panic message of a
// duplicate registration, with one %q verb for the name.
func New[T any](dupFormat string) *Registry[T] {
	return &Registry[T]{dupFormat: dupFormat, values: map[string]T{}}
}

// Register adds v under name. A duplicate name is a programming error
// and panics.
func (r *Registry[T]) Register(name string, v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.values[name]; dup {
		panic(fmt.Sprintf(r.dupFormat, name))
	}
	r.values[name] = v
	r.order = append(r.order, name)
}

// Lookup returns the value registered under name.
func (r *Registry[T]) Lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.values[name]
	return v, ok
}

// Names returns the registered names in registration order.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Sorted returns the registered names in lexical order.
func (r *Registry[T]) Sorted() []string {
	names := r.Names()
	sort.Strings(names)
	return names
}
