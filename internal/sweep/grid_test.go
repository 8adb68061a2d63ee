package sweep

import (
	"strings"
	"testing"

	"repro/internal/darco"
	"repro/internal/timing"
	"repro/internal/workload"
)

func intp(v int) *int { return &v }

func testGrid() *Grid {
	return &Grid{
		Name:      "t",
		Workloads: []string{"462.libquantum", "429.mcf"},
		Scale:     0.1,
		Base:      &darco.Knobs{Mode: "shared"},
		Axes: []Axis{
			{Name: "promotion", Values: []Value{
				{Name: "default"},
				{Name: "eager", Knobs: darco.Knobs{Promote: "adaptive"}},
			}},
			{Name: "batch", Values: []Value{
				{Name: "256", Knobs: darco.Knobs{StreamBatch: 256}},
				{Name: "1024", Knobs: darco.Knobs{StreamBatch: 1024}},
			}},
		},
	}
}

func TestDecodeGridRejectsUnknownFields(t *testing.T) {
	_, err := DecodeGrid(strings.NewReader(`{
		"workloads": ["462.libquantum"],
		"axes": [{"axis": "a", "values": [{"name": "x", "cc_sise": 512}]}]
	}`))
	if err == nil || !strings.Contains(err.Error(), "cc_sise") {
		t.Fatalf("typoed knob accepted: %v", err)
	}
}

func TestDecodeGridValid(t *testing.T) {
	g, err := DecodeGrid(strings.NewReader(`{
		"name": "promo",
		"workloads": ["462.libquantum", "429.mcf"],
		"scale": 0.25,
		"base": {"mode": "shared"},
		"axes": [
			{"axis": "promotion", "values": [
				{"name": "default"},
				{"name": "eager", "promote": "adaptive"}
			]},
			{"axis": "cc", "values": [
				{"name": "inf", "cc_size": 0},
				{"name": "512", "cc_size": 512, "cc_policy": "flush-all"}
			]}
		],
		"skip": [{"promotion": ["eager"], "cc": ["inf"]}],
		"baseline": {"promotion": "default", "cc": "inf"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 2 promotions x 2 cc minus the skipped (eager, inf).
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(cells))
	}
	for _, c := range cells {
		if c.Coords[0].Value == "eager" && c.Coords[1].Value == "inf" {
			t.Fatalf("skipped cell enumerated: %+v", c)
		}
	}
	// cc_size: 0 must be decoded as an explicit unbounded override.
	if v := g.Axes[1].Values[0]; v.CCSize == nil || *v.CCSize != 0 {
		t.Fatalf("explicit cc_size 0 lost: %+v", v)
	}
}

func TestGridValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Grid)
		want string
	}{
		{"no workloads", func(g *Grid) { g.Workloads = nil }, "no workloads"},
		{"dup workload", func(g *Grid) { g.Workloads = []string{"a", "a"} }, "twice"},
		{"dup axis", func(g *Grid) { g.Axes = append(g.Axes, g.Axes[0]) }, "two axes"},
		{"reserved axis", func(g *Grid) { g.Axes[0].Name = "workload" }, "reserved"},
		{"dup value", func(g *Grid) {
			g.Axes[0].Values = append(g.Axes[0].Values, g.Axes[0].Values[0])
		}, "two values"},
		{"empty axis", func(g *Grid) { g.Axes[0].Values = nil }, "no values"},
		{"bad baseline axis", func(g *Grid) { g.Baseline = map[string]string{"nope": "x"} }, "unknown axis"},
		{"bad baseline value", func(g *Grid) {
			g.Baseline = map[string]string{"promotion": "nope", "batch": "256"}
		}, "not on axis"},
		{"partial baseline", func(g *Grid) {
			g.Baseline = map[string]string{"promotion": "default"}
		}, "every axis"},
		{"bad skip axis", func(g *Grid) { g.Skip = []Constraint{{"nope": {"x"}}} }, "unknown axis"},
		{"bad skip value", func(g *Grid) { g.Skip = []Constraint{{"promotion": {"nope"}}} }, "not on axis"},
		{"bad skip workload", func(g *Grid) { g.Skip = []Constraint{{"workload": {"nope"}}} }, "unknown workload"},
		{"empty skip", func(g *Grid) { g.Skip = []Constraint{{}} }, "empty"},
	}
	for _, tc := range cases {
		g := testGrid()
		tc.mut(g)
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if err := testGrid().Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
}

func TestCellsOrderAndShard(t *testing.T) {
	g := testGrid()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	// Workload outermost, first axis next, second axis innermost; the
	// Index is the enumeration position.
	want := []struct {
		w, promo, batch string
	}{
		{"462.libquantum", "default", "256"},
		{"462.libquantum", "default", "1024"},
		{"462.libquantum", "eager", "256"},
		{"462.libquantum", "eager", "1024"},
		{"429.mcf", "default", "256"},
		{"429.mcf", "default", "1024"},
		{"429.mcf", "eager", "256"},
		{"429.mcf", "eager", "1024"},
	}
	for i, c := range cells {
		if c.Index != i || c.Workload != want[i].w ||
			c.Coords[0].Value != want[i].promo || c.Coords[1].Value != want[i].batch {
			t.Fatalf("cell %d = %+v, want %+v", i, c, want[i])
		}
	}
	// Skipped cells keep their indices reserved, so shards partition
	// identically whether or not a constraint removed cells between
	// their picks.
	g.Skip = []Constraint{{"promotion": {"eager"}, "batch": {"256"}}}
	cells, err = g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("after skip: cells = %d, want 6", len(cells))
	}
	indices := []int{}
	for _, c := range cells {
		indices = append(indices, c.Index)
	}
	wantIdx := []int{0, 1, 3, 4, 5, 7}
	for i := range wantIdx {
		if indices[i] != wantIdx[i] {
			t.Fatalf("indices = %v, want %v", indices, wantIdx)
		}
	}
}

func TestJobForKnobsAndPreload(t *testing.T) {
	p, err := workload.Open("462.libquantum")
	if err != nil {
		t.Fatal(err)
	}
	base := darco.DefaultConfig()

	// A mode-only change keeps the preload shortcut (records are keyed
	// by mode); any other deviation opts out.
	j, err := JobFor(p, "462.libquantum", 1, base, &darco.Knobs{Mode: "tol-only"})
	if err != nil {
		t.Fatal(err)
	}
	if j.NoPreload {
		t.Fatal("mode-only change disabled preload")
	}
	j, err = JobFor(p, "462.libquantum", 1, base, &darco.Knobs{Mode: "shared"}, &darco.Knobs{StreamBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !j.NoPreload {
		t.Fatal("config deviation kept preload")
	}
	if j.Config.Timing.StreamBatch != 256 {
		t.Fatalf("StreamBatch = %d", j.Config.Timing.StreamBatch)
	}

	// An explicit cc_size 0 restores the unbounded cache and clears a
	// policy a base or earlier knob set.
	j, err = JobFor(p, "462.libquantum", 1, base,
		&darco.Knobs{CCSize: intp(512), CCPolicy: "flush-all"}, &darco.Knobs{CCSize: intp(0)})
	if err != nil {
		t.Fatal(err)
	}
	if c := j.Config.TOL.Cache; c.CapacityInsts != 0 || c.Policy != "" {
		t.Fatalf("cache = %+v, want unbounded", c)
	}

	// Invalid knob combinations fail at job construction.
	if _, err := JobFor(p, "462.libquantum", 1, base, &darco.Knobs{Mode: "warp-speed"}); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := JobFor(p, "462.libquantum", 1, base, &darco.Knobs{CCPolicy: "flush-all"}); err == nil {
		t.Fatal("policy without capacity accepted")
	}
	bad := -1
	if _, err := JobFor(p, "462.libquantum", 1, base, &darco.Knobs{Sample: &darco.SamplePlan{Every: bad}}); err == nil {
		t.Fatal("bad sample plan accepted")
	}
	// A timing override replaces the whole host configuration, so a
	// partial one leaves a geometry the simulator cannot build.
	if _, err := JobFor(p, "462.libquantum", 1, base, &darco.Knobs{Timing: &timing.Config{MemLatency: 200}}); err == nil {
		t.Fatal("degenerate timing override accepted")
	}
}
