package tol

import (
	"fmt"
	"strings"

	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/registry"
)

// Eviction policies decide which translations leave a bounded code
// cache when a new placement does not fit. They are a pluggable axis
// of the characterization, registered exactly like optimization passes
// and promotion policies:
//
//   - flush-all: the classic co-designed-VM strategy — drop every
//     translation and restart the cache empty. Cheap bookkeeping, but
//     all chain and IBTC state is lost and the hot set retranslates
//     from scratch.
//   - fifo-region: circular region reclamation — the cache is divided
//     into fixed regions and the oldest region is freed wholesale, as
//     in trace caches that reclaim in allocation order. Translations
//     spanning a region boundary are evicted with the region.
//   - lru-translation: evict the single least-recently-entered
//     translation, repeating until the placement fits. Finest
//     granularity and best hot-set retention, at the cost of
//     fragmentation (holes are reused first-fit).
//
// Policies see the cache through its exported surface (Translations,
// Capacity, Translation.LastUse), so externally registered policies
// are possible; the in-tree ones also serve as reference
// implementations.

// EvictionPolicy selects translations to remove from a full bounded
// code cache. Victims is called repeatedly until the pending placement
// of need instruction slots fits; returning an empty slice aborts the
// placement with an error. Implementations may be stateful (one
// instance serves one cache for one run) but must be deterministic.
type EvictionPolicy interface {
	Name() string
	Victims(c *CodeCache, need int) []*Translation
}

// EvictionFactory builds a fresh policy instance for one cache.
type EvictionFactory func() EvictionPolicy

var evictionRegistry = registry.New[EvictionFactory]("tol: duplicate eviction policy %q")

// RegisterEvictionPolicy adds a policy factory to the registry. Names
// must be unique, non-empty, and free of separator characters. Like
// RegisterPass, it is normally called from an init function.
func RegisterEvictionPolicy(name string, f EvictionFactory) {
	if name == "" || strings.ContainsAny(name, ", \t") {
		panic(fmt.Sprintf("tol: invalid eviction policy name %q", name))
	}
	evictionRegistry.Register(name, f)
}

func init() {
	RegisterEvictionPolicy("flush-all", func() EvictionPolicy { return flushAllPolicy{} })
	RegisterEvictionPolicy("fifo-region", func() EvictionPolicy { return &fifoRegionPolicy{} })
	RegisterEvictionPolicy("lru-translation", func() EvictionPolicy { return lruTranslationPolicy{} })
}

// DefaultEvictionPolicy is used when a bounded cache leaves
// CacheConfig.Policy empty.
const DefaultEvictionPolicy = "flush-all"

// RegisteredEvictionPolicies returns the registered policy names,
// sorted.
func RegisteredEvictionPolicies() []string { return evictionRegistry.Sorted() }

// NewEvictionPolicy resolves the configured eviction policy into a
// fresh instance ("" selects flush-all). It returns (nil, nil) for the
// unbounded cache, which never evicts.
func (cc *CacheConfig) NewEvictionPolicy() (EvictionPolicy, error) {
	if cc.CapacityInsts == 0 {
		return nil, nil
	}
	spec := cc.Policy
	if spec == "" {
		spec = DefaultEvictionPolicy
	}
	f, ok := evictionRegistry.Lookup(spec)
	if !ok {
		return nil, fmt.Errorf("tol: unknown eviction policy %q (registered: %s)",
			spec, strings.Join(RegisteredEvictionPolicies(), ", "))
	}
	return f(), nil
}

// flushAllPolicy drops every translation — the full flush of classic
// co-designed VMs and early DBTs.
type flushAllPolicy struct{}

func (flushAllPolicy) Name() string { return "flush-all" }

func (flushAllPolicy) Victims(c *CodeCache, need int) []*Translation {
	return append([]*Translation(nil), c.Translations()...)
}

// fifoRegions is the number of reclamation regions of the fifo-region
// policy.
const fifoRegions = 4

// fifoRegionPolicy reclaims the cache as a circular sequence of
// fixed-size regions, freeing the next region in rotation wholesale.
type fifoRegionPolicy struct {
	next int // region index to reclaim next
}

func (*fifoRegionPolicy) Name() string { return "fifo-region" }

func (p *fifoRegionPolicy) Victims(c *CodeCache, need int) []*Translation {
	all := c.Translations()
	if len(all) == 0 {
		return nil
	}
	regionSlots := uint32(c.Capacity() / fifoRegions)
	if regionSlots == 0 {
		return append([]*Translation(nil), all...)
	}
	for i := 0; i < fifoRegions; i++ {
		r := uint32(p.next % fifoRegions)
		p.next++
		lo := mem.CodeCacheBase + r*regionSlots*host.InstBytes
		hi := lo + regionSlots*host.InstBytes
		if r == fifoRegions-1 {
			hi = mem.CodeCacheBase + uint32(c.Capacity())*host.InstBytes
		}
		var victims []*Translation
		for _, tr := range all {
			if tr.HostEntry < hi && tr.HostEnd > lo {
				victims = append(victims, tr)
			}
		}
		if len(victims) > 0 {
			return victims
		}
	}
	return nil
}

// lruTranslationPolicy evicts the least-recently-entered translation.
// Recency stamps are unique (placement counts as the first touch and
// the clock only advances), so victim selection is deterministic.
type lruTranslationPolicy struct{}

func (lruTranslationPolicy) Name() string { return "lru-translation" }

func (lruTranslationPolicy) Victims(c *CodeCache, need int) []*Translation {
	var victim *Translation
	for _, tr := range c.Translations() {
		if victim == nil || tr.lastUse < victim.lastUse {
			victim = tr
		}
	}
	if victim == nil {
		return nil
	}
	return []*Translation{victim}
}
