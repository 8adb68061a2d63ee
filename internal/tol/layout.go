package tol

import "repro/internal/mem"

// TOL routine text layout. Each TOL activity owns a PC range inside the
// TOL code region; the cost model walks these ranges when the activity
// runs, so the instruction-cache behaviour of TOL (small, hot footprint
// that lives in L1I) emerges from which routines execute.
const (
	// tolEntry is the service entry point translated code jumps to when
	// it needs TOL (exit stubs, IBTC misses, promotion triggers). The
	// functional engine intercepts this PC.
	tolEntry = mem.TOLCodeBase

	// Routine text bases (sizes are implicit in the cost model's walks).
	dispatchText  = mem.TOLCodeBase + 0x0100   // main execution loop
	interpText    = mem.TOLCodeBase + 0x1000   // interpreter handlers, 128B/opcode
	translateText = mem.TOLCodeBase + 0x8000   // BBM translator
	optimizeText  = mem.TOLCodeBase + 0x1_0000 // SBM optimizer passes
	lookupText    = mem.TOLCodeBase + 0x2_0000 // code cache lookup
	chainText     = mem.TOLCodeBase + 0x2_1000 // chaining/patching
	ibtcFillText  = mem.TOLCodeBase + 0x2_2000 // IBTC miss service
	evictText     = mem.TOLCodeBase + 0x2_3000 // code cache eviction/unlink
)

// interpHandlerText returns the text base of the interpreter handler
// for opcode op. Distinct handlers give the interpreter a realistic
// instruction footprint and indirect-dispatch target spread.
func interpHandlerText(op uint8) uint32 {
	return interpText + uint32(op)*128
}

// Translation-table geometry: an open-addressing hash table of
// (guest-IP, code-cache entry) pairs. Probes during code cache lookup
// touch these addresses — the data-intensive traversal the paper
// identifies as a dominant overhead for indirect-branch-heavy
// applications.
const (
	transTableEntries = 1 << 16
	transTableMask    = transTableEntries - 1
	transEntryBytes   = 8
)

// transSlotAddr returns the simulated address of translation-table slot i.
func transSlotAddr(i uint32) uint32 {
	return mem.TransTableBase + i*transEntryBytes
}

// IBTC geometry: direct-mapped, tag + target per entry. Probed inline
// by translated code (real host instructions). The size follows the
// small translation caches of the indirect-branch literature the paper
// builds on; applications with many distinct indirect targets (deep
// call trees, wide dispatch tables) suffer conflict misses and fall
// back to TOL code cache lookups — the perlbench behaviour.
const (
	// ibtcEntries is the number of IBTC slots.
	ibtcEntries = 256
	ibtcMask    = ibtcEntries - 1
	// ibtcEntryBytes is the size of one IBTC entry (tag word + target word).
	ibtcEntryBytes = 8
)

// ibtcSlotAddr returns the simulated address of IBTC slot i.
func ibtcSlotAddr(i uint32) uint32 {
	return mem.IBTCBase + i*ibtcEntryBytes
}

// Profile-table geometry: one 8-byte slot per profiled basic block
// (execution counter + padding), updated by real instrumentation code
// in BBM translations.
const profSlotBytes = 8

func profSlotAddr(i uint32) uint32 {
	return mem.ProfileTableBase + i*profSlotBytes
}

// hashGuest is the Fibonacci hash TOL uses for both the translation
// table and the IBTC index.
func hashGuest(g uint32) uint32 { return g * 2654435761 }
