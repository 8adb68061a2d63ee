// Package snapshot is the checkpoint envelope of the simulation
// infrastructure: a versioned, JSON-serializable capture of the full
// machine state — the co-design engine (guest memory image, warm TOL
// software state, accumulated statistics) and, optionally, the timing
// simulator paused at a cycle boundary.
//
// The component layers own their own serialization (tol.EngineSnapshot
// and timing.SimSnapshot, each with a tested byte-identity guarantee:
// a restored machine resumed on the remainder of a run produces
// results identical to the uninterrupted run). This package composes
// them into one durable artifact with a format version and a program
// fingerprint, so a checkpoint can be persisted through
// internal/store, shipped between processes, and validated before a
// restore instead of failing obscurely mid-run.
//
// Each piece of state has one shape: structure statistics are counters
// of SimSnapshot.Res, and engine checkpoints embed live types
// (tol.ExitInfo, emu.Stats). Decode rejects unknown fields, and the
// restores reject values no run can produce: either is an error, never
// state silently dropped or a resumed run that panics.
//
// Sampled simulation (internal/sample) is the main producer: it
// checkpoints the engine at interval boundaries during a functional
// fast-forward and restores each checkpoint for parallel detailed
// measurement. Inside a process a checkpoint stays a Machine value;
// Encode and Decode run only where bytes leave the process.
package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/guest"
	"repro/internal/strictjson"
	"repro/internal/timing"
	"repro/internal/tol"
)

// version is the current checkpoint format version. Decode rejects
// envelopes with a different version: checkpoint formats evolve with
// the machine state they capture, and a mis-versioned restore would
// corrupt a run silently.
const version = 1

// Machine is one checkpoint: the engine state (always) plus the timing
// simulator state (when the checkpoint was taken mid-simulation rather
// than at a functional fast-forward boundary).
type Machine struct {
	Version int `json:"version"`

	// Program identifies the guest program the checkpoint belongs to —
	// the workload content fingerprint when known, empty otherwise.
	// Restore validates it when both sides carry one.
	Program string `json:"program,omitempty"`

	// ISA names the guest frontend the checkpoint was taken under,
	// recorded in clear so tools can label checkpoints without decoding
	// the engine state. Empty means x86 (pre-frontend envelopes);
	// Restore rejects a program decoding under a different frontend
	// before any engine state is interpreted.
	ISA string `json:"isa,omitempty"`

	// GuestInsts is the number of guest instructions retired at capture
	// time, recorded in clear so tools can order and label checkpoints
	// without decoding the engine state.
	GuestInsts uint64 `json:"guest_insts"`

	Engine *tol.EngineSnapshot `json:"engine"`
	Sim    *timing.SimSnapshot `json:"sim,omitempty"`
}

// Capture checkpoints an engine (and optionally a paused simulator)
// into a Machine envelope. The engine must be at a generation boundary
// (between Next/NextBatch calls); the simulator, when given, must be
// stopped at a cycle boundary (before RunContext, or after it returned
// ErrPaused).
func Capture(program string, eng *tol.Engine, sim *timing.Simulator) (*Machine, error) {
	esn, err := eng.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	m := &Machine{
		Version:    version,
		Program:    program,
		ISA:        esn.ISA,
		GuestInsts: esn.GuestInsts(),
		Engine:     esn,
	}
	if sim != nil {
		m.Sim = sim.Snapshot()
	}
	return m, nil
}

// Validate checks the envelope is restorable: current version, engine
// state present, and — when both the envelope and the caller know the
// program fingerprint — a matching program.
func (m *Machine) Validate(program string) error {
	if m.Version != version {
		return fmt.Errorf("snapshot: format version %d, this build reads version %d", m.Version, version)
	}
	if m.Engine == nil {
		return fmt.Errorf("snapshot: envelope has no engine state")
	}
	if program != "" && m.Program != "" && program != m.Program {
		return fmt.Errorf("snapshot: checkpoint of program %s cannot restore program %s", m.Program, program)
	}
	if _, err := guest.LookupISA(m.ISA); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Restore rebuilds the machine: an engine resumed from the checkpoint
// and, when the checkpoint carries simulator state, the paused
// simulator ready to continue via RunContext. p must be the same guest
// program the checkpoint was captured from. Restore only reads m, so
// any number of goroutines may restore one Machine at the same time.
func (m *Machine) Restore(p *guest.Program) (*tol.Engine, *timing.Simulator, error) {
	if err := m.Validate(""); err != nil {
		return nil, nil, err
	}
	if isa, err := guest.ISAOf(p); err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	} else if m.ISA != "" && isa.Name != m.ISA {
		return nil, nil, fmt.Errorf("snapshot: checkpoint taken under ISA %q cannot restore a %q program", m.ISA, isa.Name)
	}
	eng, err := tol.RestoreEngine(p, m.Engine)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	var sim *timing.Simulator
	if m.Sim != nil {
		sim, err = timing.RestoreSimulator(m.Sim)
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	return eng, sim, nil
}

// Encode marshals the envelope.
func Encode(m *Machine) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	return b, nil
}

// Decode unmarshals and validates an envelope. Unknown versions and
// unknown fields are rejected here, before any state is interpreted: a
// field this build does not read is state a restore would drop.
func Decode(b []byte) (*Machine, error) {
	var m Machine
	if err := strictjson.Decode(bytes.NewReader(b), &m); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if err := m.Validate(""); err != nil {
		return nil, err
	}
	return &m, nil
}
