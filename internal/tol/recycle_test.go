package tol

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
)

// emptyFreeLists drops every arena and decode cache that retired
// engines left for the next ones, so the next engine starts with fresh
// scratch. guest's list holds at most GOMAXPROCS caches, so taking that
// many empties it.
func emptyFreeLists() {
	freeArenas.Lock()
	freeArenas.list = nil
	freeArenas.Unlock()
	for range runtime.GOMAXPROCS(0) {
		guest.NewDecodeCache(guest.X86)
	}
}

// runOutcome is everything a run of program B shows: its whole stream
// (digested field by field), its Stats and its final guest state.
type runOutcome struct {
	digest string
	n      int
	stats  []byte
	gs     guest.State
}

func runB(t *testing.T, cfg Config, p *guest.Program) runOutcome {
	t.Helper()
	e := NewEngine(cfg, p)
	sum, n, err := streamDigest(e)
	if err != nil {
		t.Fatal(err)
	}
	return runOutcome{digest: sum, n: n, stats: mustStatsJSON(t, &e.Stats), gs: *e.GuestState()}
}

// TestRecycledScratchDoesNotLeak runs program B on a fresh engine and
// again right after an engine A whose stream ended: a long x86 run, an
// rv32 run and a run cancelled mid-burst. A's stream arena and decode
// cache are then the ones B's engine adopts, and B must stream
// element-identically, with the same Stats and final state, whatever A
// left in them. B crosses frontends in two of the cases, so a recycled
// decode cache is also refilled under another ISA's alignment.
func TestRecycledScratchDoesNotLeak(t *testing.T) {
	prog := func(ref string, scale float64) *guest.Program {
		tc := streamGoldenCase{ref: ref, scale: scale}
		return tc.program(t)
	}
	defaults := DefaultConfig()
	churn := DefaultConfig()
	churnConfig(&churn)
	churn.Cosim = false

	cases := []struct {
		name string
		a    func(t *testing.T)
		bCfg Config
		b    *guest.Program
	}{
		{
			name: "after long x86",
			a: func(t *testing.T) {
				e := NewEngine(churn, prog("445.gobmk", 0.5))
				var out []timing.DynInst
				drainStream(e, &out)
				if !e.Halted() || e.Err() != nil {
					t.Fatalf("A did not halt: %v", e.Err())
				}
			},
			bCfg: defaults,
			b:    prog("rv32:400.perlbench", 0.2),
		},
		{
			name: "after rv32",
			a: func(t *testing.T) {
				if err := NewEngine(defaults, prog("rv32:429.mcf", 0.5)).Run(); err != nil {
					t.Fatal(err)
				}
			},
			bCfg: churn,
			b:    prog("401.bzip2", 0.2),
		},
		{
			name: "after cancel mid-burst",
			a: func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Cosim = false
				e := NewEngine(cfg, hotLoopProgram(t, 2_000_000))
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				e.SetContext(ctx)
				var buf [64]timing.DynInst
				for len(e.queue.buf)-e.queue.head < queueDrainThreshold/2 {
					if e.NextBatch(buf[:]) == 0 {
						t.Fatal("A's stream ended before a burst filled its queue")
					}
				}
				cancel()
				e.SetContext(ctx) // poll at the next generation unit
				for e.NextBatch(buf[:]) > 0 {
				}
				if !errors.Is(e.Err(), context.Canceled) {
					t.Fatalf("A's error = %v, want context.Canceled", e.Err())
				}
			},
			bCfg: defaults,
			b:    prog("429.mcf", 0.2),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			emptyFreeLists()
			fresh := runB(t, c.bCfg, c.b)
			emptyFreeLists()
			c.a(t)
			recycled := runB(t, c.bCfg, c.b)
			if recycled.digest != fresh.digest || recycled.n != fresh.n {
				t.Errorf("stream: %d insts digest %s after A, %d insts digest %s fresh", recycled.n, recycled.digest, fresh.n, fresh.digest)
			}
			if !bytes.Equal(recycled.stats, fresh.stats) {
				t.Errorf("Stats differ after A:\n%s\nfresh:\n%s", recycled.stats, fresh.stats)
			}
			if d := recycled.gs.Diff(&fresh.gs); d != "" {
				t.Errorf("final state differs after A: %s", d)
			}
		})
	}
}

// TestRetiredEngineStaysInspectable ends a stream and checks what
// retirement gave away and what it kept: the arena and the decode
// cache are gone, while Stats, GuestState and CC answer as before and
// every stream call stays at stream end. TestCaptureRetiredEngine
// checkpoints and restores a retired engine.
func TestRetiredEngineStaysInspectable(t *testing.T) {
	p := fibProgram(20)
	cfg := DefaultConfig()
	cfg.SBThreshold = 25
	ref := NewEngine(cfg, p)
	var d timing.DynInst
	for ref.Next(&d) {
		if ref.dec == nil || ref.trans.dec == nil {
			t.Fatal("decode cache released before the stream ended")
		}
	}
	if ref.Err() != nil || !ref.Halted() {
		t.Fatalf("run did not halt: %v", ref.Err())
	}

	e, _ := runBoth(t, p, cfg)
	if e.dec != nil || e.trans.dec != nil || e.queue.buf != nil {
		t.Fatal("a halted engine kept its decode cache or stream arena")
	}
	if got, want := mustStatsJSON(t, &e.Stats), mustStatsJSON(t, &ref.Stats); !bytes.Equal(got, want) {
		t.Fatalf("retired Stats differ from a Next-driven run:\n%s\n%s", got, want)
	}
	if d := e.GuestState().Diff(ref.GuestState()); d != "" {
		t.Fatalf("retired GuestState differs: %s", d)
	}
	if e.CC == nil || len(e.CC.snapshot().Translations) == 0 {
		t.Fatal("retired engine lost its code cache")
	}

	var buf [16]timing.DynInst
	if e.NextBatch(buf[:]) != 0 || e.Next(&d) || e.Drain() != 0 || e.Run() != nil {
		t.Fatal("a retired engine streamed again")
	}
}

// TestPausedEngineDoesNotRetire: a paused stream can be re-armed with
// SetStopAfter, so it keeps its scratch.
func TestPausedEngineDoesNotRetire(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cosim = false
	e := NewEngine(cfg, hotLoopProgram(t, 100_000))
	e.SetStopAfter(10_000)
	e.Drain()
	if !e.Paused() {
		t.Fatal("engine did not pause")
	}
	if e.dec == nil || e.trans.dec == nil || e.queue.buf == nil {
		t.Fatal("a paused engine gave its scratch away")
	}
	e.SetStopAfter(0)
	if err := e.Run(); err != nil || !e.Halted() {
		t.Fatalf("re-armed engine did not halt: %v", err)
	}
	if e.dec != nil || e.queue.buf != nil {
		t.Fatal("halted engine kept its scratch")
	}
}
