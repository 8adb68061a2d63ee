package tol

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/timing"
)

func TestParsePipeline(t *testing.T) {
	def, err := parsePipeline("")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range def {
		names = append(names, p.Name())
	}
	if got := strings.Join(names, ","); got != defaultPasses {
		t.Fatalf("default pipeline = %q, want %q", got, defaultPasses)
	}

	if none, err := parsePipeline(PassesNone); err != nil || len(none) != 0 {
		t.Fatalf("'none' pipeline: %v %v", none, err)
	}
	if ws, err := parsePipeline(" constprop , dce "); err != nil || len(ws) != 2 {
		t.Fatalf("whitespace spec: %v %v", ws, err)
	}
	if _, err := parsePipeline("constprop,bogus"); err == nil {
		t.Fatal("unknown pass accepted")
	}
	if _, err := parsePipeline("constprop,,dce"); err == nil {
		t.Fatal("empty pass name accepted")
	}
	// Repeats are allowed (O3 runs propagation twice).
	if rep, err := parsePipeline("constprop,constprop"); err != nil || len(rep) != 2 {
		t.Fatalf("repeated pass: %v %v", rep, err)
	}
}

func TestOptLevelPresets(t *testing.T) {
	for _, level := range []string{"O0", "O1", "O2", "O3"} {
		spec, ok := optLevelPasses(level)
		if !ok {
			t.Fatalf("preset %s missing", level)
		}
		if _, err := parsePipeline(spec); err != nil {
			t.Fatalf("preset %s does not parse: %v", level, err)
		}
	}
	if spec, _ := optLevelPasses("O2"); spec != defaultPasses {
		t.Fatalf("O2 preset %q != defaultPasses", spec)
	}

	cfg := DefaultConfig()
	if err := ApplyOptLevel(&cfg, 0); err != nil {
		t.Fatal(err)
	}
	if cfg.EnableSBM {
		t.Fatal("O0 must disable SBM")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("O0 config invalid: %v", err)
	}
	if err := ApplyOptLevel(&cfg, 3); err != nil {
		t.Fatal(err)
	}
	if !cfg.EnableSBM || cfg.OptLevel != "O3" {
		t.Fatalf("O3 config: %+v", cfg)
	}
	if err := ApplyOptLevel(&cfg, 7); err == nil {
		t.Fatal("out-of-range level accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.BBThreshold = -1 },
		func(c *Config) { c.SBThreshold = -5 },
		func(c *Config) { c.MaxSBBlocks = 0 },
		func(c *Config) { c.MaxSBGuestInsts = 0 },
		func(c *Config) { c.Passes = "bogus" },
		func(c *Config) { c.Passes = PassesNone }, // empty pipeline + SBM
		func(c *Config) { c.OptLevel = "O9" },
		func(c *Config) { c.Promotion = "bogus" },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	// The SBM bounds only matter when SBM is enabled.
	c := DefaultConfig()
	c.EnableSBM = false
	c.MaxSBBlocks = 0
	c.Passes = PassesNone
	if err := c.Validate(); err != nil {
		t.Errorf("SBM-disabled config rejected: %v", err)
	}

	// An invalid config must surface as an engine error, not garbage.
	c = DefaultConfig()
	c.Passes = "bogus"
	eng := NewEngine(c, fibProgram(10))
	if err := eng.Run(); err == nil || !strings.Contains(err.Error(), "unknown pass") {
		t.Fatalf("engine with bad pipeline: err=%v", err)
	}
}

func TestPromotionPolicies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BBThreshold = 5
	cfg.SBThreshold = 100

	fixed, err := cfg.NewPromotionPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Name() != "fixed" {
		t.Fatalf("default policy = %s", fixed.Name())
	}
	if fixed.ShouldTranslate(0x1000, 5) || !fixed.ShouldTranslate(0x1000, 6) {
		t.Fatal("fixed ShouldTranslate does not match BBThreshold")
	}
	if got := fixed.SBThreshold(0x1000); got != 100 {
		t.Fatalf("fixed SBThreshold = %d", got)
	}

	cfg.Promotion = "adaptive"
	ad, err := cfg.NewPromotionPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if got := ad.SBThreshold(0x1000); got != 100 {
		t.Fatalf("adaptive base threshold = %d", got)
	}
	for i := 0; i < adaptiveStep; i++ {
		ad.OnSuperblock(uint32(i))
	}
	if got := ad.SBThreshold(0x1000); got != 200 {
		t.Fatalf("adaptive threshold after %d superblocks = %d, want 200", adaptiveStep, got)
	}
	for i := 0; i < 10*adaptiveStep; i++ {
		ad.OnSuperblock(uint32(i))
	}
	if got := ad.SBThreshold(0x1000); got != 100<<adaptiveMaxShift {
		t.Fatalf("adaptive threshold not capped: %d", got)
	}

	cfg.Promotion = "bogus"
	if _, err := cfg.NewPromotionPolicy(); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestAdaptivePromotionEndToEnd runs a multi-loop program under both
// policies: the engine must stay correct (cosim-checked in runBoth)
// and the adaptive policy must never promote more than fixed.
func TestAdaptivePromotionEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SBThreshold = 20
	fixedEng, _ := runBoth(t, fibProgram(500), cfg)
	cfg.Promotion = "adaptive"
	adEng, _ := runBoth(t, fibProgram(500), cfg)
	if adEng.Stats.SBCreated > fixedEng.Stats.SBCreated {
		t.Fatalf("adaptive created more superblocks (%d) than fixed (%d)",
			adEng.Stats.SBCreated, fixedEng.Stats.SBCreated)
	}
}

// TestPassReportAccounting checks the per-pass bookkeeping: every
// pipeline pass appears in Stats.SBPasses with one run per SBM
// invocation, the aggregated visit counts match the cost-model
// billing, and the per-pass cost split exactly covers the SBM stream
// the engine emitted.
func TestPassReportAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SBThreshold = 20
	cfg.Cosim = false
	eng := NewEngine(cfg, fibProgram(500))
	var d timing.DynInst
	var sbmStream uint64
	for eng.Next(&d) {
		if d.Comp == timing.CompSBM {
			sbmStream++
		}
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if eng.Stats.SBCreated == 0 {
		t.Fatal("no superblocks")
	}

	names, err := cfg.PipelineNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Stats.SBPasses) != len(names) {
		t.Fatalf("SBPasses has %d entries, pipeline has %d distinct passes",
			len(eng.Stats.SBPasses), len(names))
	}
	var visits uint64
	for i, ps := range eng.Stats.SBPasses {
		if ps.Pass != names[i] {
			t.Errorf("SBPasses[%d] = %s, want %s (pipeline order)", i, ps.Pass, names[i])
		}
		if ps.Runs != uint64(eng.Stats.SBCreated) {
			t.Errorf("pass %s ran %d times for %d superblocks", ps.Pass, ps.Runs, eng.Stats.SBCreated)
		}
		visits += ps.Visits
	}
	// The SBM cost stream must be exactly covered by the per-pass split
	// plus the non-pass remainder.
	if got := eng.Stats.SBMInstTotal(); got != sbmStream {
		t.Fatalf("per-pass cost split (%d insts) != SBM stream (%d insts)", got, sbmStream)
	}
	if visits == 0 {
		t.Fatal("no pass visits recorded")
	}
}

// TestPipelineDeterminism: the same pipeline spec must produce
// byte-identical stats across runs, and distinct pipelines are
// honoured (ablating rle changes the emitted superblock code).
func TestPipelineDeterminism(t *testing.T) {
	run := func(passes string) *Engine {
		cfg := DefaultConfig()
		cfg.SBThreshold = 20
		cfg.Cosim = false
		cfg.Passes = passes
		eng := NewEngine(cfg, fibProgram(500))
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	marshal := func(e *Engine) string {
		b, err := json.Marshal(&e.Stats)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := run("dce,constprop,sched"), run("dce,constprop,sched")
	if marshal(a) != marshal(b) {
		t.Fatal("same pipeline spec produced different stats")
	}
	if a.CC.UsedInsts() != b.CC.UsedInsts() {
		t.Fatal("same pipeline spec produced different code")
	}
}

// TestRLEAblation: with the rle pass the optimizer absorbs repeated
// loads into registers (Eliminated > 0); ablating it removes the pass
// entirely while the program still computes correctly under
// co-simulation.
func TestRLEAblation(t *testing.T) {
	build := func(passes string) *Engine {
		cfg := DefaultConfig()
		cfg.SBThreshold = 20
		cfg.Passes = passes
		eng, _ := runBoth(t, redundantLoadProgram(), cfg)
		return eng
	}
	with := build("constprop,dce,rle,sched")
	without := build("constprop,dce,sched")
	if with.Stats.SBCreated == 0 || without.Stats.SBCreated == 0 {
		t.Fatal("no superblocks formed")
	}
	var rle *PassStat
	for i := range with.Stats.SBPasses {
		if with.Stats.SBPasses[i].Pass == "rle" {
			rle = &with.Stats.SBPasses[i]
		}
	}
	if rle == nil || rle.Eliminated == 0 {
		t.Fatalf("rle eliminated nothing: %+v", with.Stats.SBPasses)
	}
	for _, ps := range without.Stats.SBPasses {
		if ps.Pass == "rle" {
			t.Fatal("rle ran despite being ablated")
		}
	}
}

// TestRLEBeforeDCE: when a pass ordered after rle drops the load that
// would have filled a cache register, emission must materialize the
// fill at the first surviving use instead of copying from a
// never-written register. The first load's destination is dead (EAX is
// overwritten before any read), so "rle,dce,sched" drops it while the
// second load still carries a use annotation; correctness is checked
// by continuous co-simulation in runBoth.
func TestRLEBeforeDCE(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EBP, int32(mem.GuestDataBase))
	b.MovRI(guest.EAX, 7)
	b.Store(guest.EBP, 0, guest.EAX)
	b.MovRI(guest.ECX, 300)
	b.MovRI(guest.EDI, 0)
	b.Label("loop")
	b.Load(guest.EAX, guest.EBP, 0) // dead: EAX overwritten below
	b.MovRI(guest.EAX, 1)
	b.Load(guest.EBX, guest.EBP, 0) // rle use of the dropped load's register
	b.AddRR(guest.EDI, guest.EBX)
	b.AddRR(guest.EDI, guest.EAX)
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	cfg := DefaultConfig()
	cfg.SBThreshold = 20
	cfg.Passes = "rle,dce,sched"
	eng, _ := runBoth(t, b.MustBuild(), cfg)
	if eng.Stats.SBCreated == 0 {
		t.Fatal("no superblock formed")
	}
	if got := eng.GuestState().Regs[guest.EDI]; got != 300*8 {
		t.Fatalf("edi = %d, want %d", got, 300*8)
	}
}

// redundantLoadProgram is a hot loop with three loads of one slot.
func redundantLoadProgram() *guest.Program {
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EBP, int32(mem.GuestDataBase))
	b.MovRI(guest.EAX, 7)
	b.Store(guest.EBP, 0, guest.EAX)
	b.MovRI(guest.ECX, 300)
	b.MovRI(guest.EDI, 0)
	b.Label("loop")
	b.Load(guest.EAX, guest.EBP, 0)
	b.Load(guest.EBX, guest.EBP, 0) // redundant
	b.AddRR(guest.EDI, guest.EAX)
	b.AddRR(guest.EDI, guest.EBX)
	b.Load(guest.EDX, guest.EBP, 0) // redundant
	b.AddRR(guest.EDI, guest.EDX)
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestPackageDocListsRegisteredPasses keeps the package documentation
// honest: every registered pass name must be enumerated in the package
// comment (config.go), so the doc can never again promise passes that
// do not exist (or hide ones that do).
func TestPackageDocListsRegisteredPasses(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "config.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if f.Doc == nil {
		t.Fatal("config.go carries no package documentation")
	}
	doc := f.Doc.Text()
	for _, name := range registeredPasses() {
		if !strings.Contains(doc, name+":") {
			t.Errorf("package doc does not enumerate registered pass %q", name)
		}
	}
}
