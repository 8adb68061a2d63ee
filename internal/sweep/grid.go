// Package sweep is the declarative characterization-grid engine of the
// infrastructure: the paper's evaluation is a matrix of workloads
// against software-layer knobs, and this package turns such a matrix —
// a Grid of workload references × named Axis values, each a
// darco.Knobs delta (code-cache size and policy, optimization pipeline,
// promotion, stream batching, timing mode and host parameters,
// sampling plan) — into darco.Session jobs, executes them sharded in
// parallel (locally or on a darco-serve instance via darco.WithRemote),
// and aggregates the outcomes into a long-form ResultSet with derived
// metrics (speedup against a declared baseline cell, geomeans across
// workloads, sampling confidence intervals).
//
// Resumability is by construction: every cell's job carries the
// content-addressed memo key (darco.Job.Key), so a session attached to
// a persistent store (darco.WithStore) serves previously completed
// cells from disk (EventCached) and only simulates the missing ones.
// Re-running a half-finished grid — after an interrupt, a crash, or
// from another shard — never repeats work.
//
// Grids are plain data: DecodeGrid loads the JSON form (rejecting
// unknown fields, like the workload file: source), cmd/darco-figs surfaces
// it as -grid, and committed specs live in examples/grids/. Every
// figure of internal/experiments runs on this engine: Figures 5–11 as
// one workloads × mode-axis grid (Runner.Figure), FigCC, FigPhase and
// FigSample as their own grid specs.
package sweep

import (
	"fmt"
	"io"

	"repro/internal/darco"
	"repro/internal/strictjson"
	"repro/internal/workload"
)

// Value is one named point on an axis: a display/reference name plus
// the knob delta the point applies. The zero delta is valid — a value
// that changes nothing is the conventional spelling of a baseline
// point.
type Value struct {
	Name string `json:"name"`
	darco.Knobs
}

// Axis is one swept dimension: a name (the column header and the key
// constraints and baselines refer to it by) and its ordered values.
type Axis struct {
	Name   string  `json:"axis"`
	Values []Value `json:"values"`
}

// Constraint names cells to skip: a map from axis name (or the
// reserved key "workload", matching workload references) to an allowed
// value set. A cell is skipped when every named axis's value is in the
// listed set, so one constraint expresses a rectangular hole in the
// grid — e.g. "the unbounded policy pairs only with the inf size".
type Constraint map[string][]string

// workloadKey is the reserved Constraint key matching the workload
// dimension.
const workloadKey = "workload"

func (c Constraint) matches(ref string, coords []Coord) bool {
	if len(c) == 0 {
		return false
	}
	for axis, vals := range c {
		have := ""
		if axis == workloadKey {
			have = ref
		} else {
			for _, co := range coords {
				if co.Axis == axis {
					have = co.Value
					break
				}
			}
		}
		found := false
		for _, v := range vals {
			if v == have {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Grid is a declarative characterization sweep: the cross product of
// Workloads and the values of every Axis, minus the Skip constraints.
// It is plain JSON-loadable data (DecodeGrid); Cells enumerates it and
// Run / RunOn execute it.
type Grid struct {
	// Name labels reports (and the -grid CSV title).
	Name string `json:"name,omitempty"`
	// Workloads are Source-registry references ("<source>:<name>"; a
	// bare name means the synthetic catalog).
	Workloads []string `json:"workloads"`
	// Scale multiplies every workload's dynamic size (0 = 1.0). A
	// factor workload.ScaleProgram rejects fails the run before any
	// cell simulates.
	Scale float64 `json:"scale,omitempty"`
	// Base is a knob delta applied to every cell before its axis
	// values — the place a grid pins the mode or disables cosim.
	Base *darco.Knobs `json:"base,omitempty"`
	// Axes are the swept dimensions, first axis outermost in cell
	// order. A grid with no axes runs each workload once at Base.
	Axes []Axis `json:"axes,omitempty"`
	// Skip removes cells (see Constraint).
	Skip []Constraint `json:"skip,omitempty"`
	// Baseline names one value per axis; the cell at those coordinates
	// is each workload's reference point for the derived speedup
	// column. Empty means no baseline metrics.
	Baseline map[string]string `json:"baseline,omitempty"`
}

// Coord is one cell coordinate: the axis and the value name.
type Coord struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// Cell is one enumerated grid point.
type Cell struct {
	// Index is the cell's position in full-grid enumeration order; it
	// is stable across runs and shards (sharding selects by it).
	Index    int
	Workload string
	Coords   []Coord
}

// Validate rejects structurally broken grids — no workloads, duplicate
// axis or value names, constraints or baselines referring to axes or
// values that do not exist — before any cell is enumerated.
func (g *Grid) Validate() error {
	if len(g.Workloads) == 0 {
		return fmt.Errorf("sweep: grid %q has no workloads", g.Name)
	}
	seenW := map[string]bool{}
	for _, ref := range g.Workloads {
		if ref == "" {
			return fmt.Errorf("sweep: grid %q has an empty workload reference", g.Name)
		}
		if seenW[ref] {
			return fmt.Errorf("sweep: grid %q lists workload %q twice", g.Name, ref)
		}
		seenW[ref] = true
	}
	axes := map[string]map[string]bool{}
	for _, ax := range g.Axes {
		if ax.Name == "" {
			return fmt.Errorf("sweep: grid %q has an unnamed axis", g.Name)
		}
		if ax.Name == workloadKey {
			return fmt.Errorf("sweep: axis name %q is reserved for the workload dimension", workloadKey)
		}
		if axes[ax.Name] != nil {
			return fmt.Errorf("sweep: grid %q has two axes named %q", g.Name, ax.Name)
		}
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", ax.Name)
		}
		vals := map[string]bool{}
		for _, v := range ax.Values {
			if v.Name == "" {
				return fmt.Errorf("sweep: axis %q has an unnamed value", ax.Name)
			}
			if vals[v.Name] {
				return fmt.Errorf("sweep: axis %q has two values named %q", ax.Name, v.Name)
			}
			vals[v.Name] = true
		}
		axes[ax.Name] = vals
	}
	for axis, val := range g.Baseline {
		vals := axes[axis]
		if vals == nil {
			return fmt.Errorf("sweep: baseline names unknown axis %q", axis)
		}
		if !vals[val] {
			return fmt.Errorf("sweep: baseline value %q is not on axis %q", val, axis)
		}
	}
	if len(g.Baseline) > 0 && len(g.Baseline) != len(g.Axes) {
		return fmt.Errorf("sweep: baseline must name a value for every axis (%d of %d named)",
			len(g.Baseline), len(g.Axes))
	}
	for i, c := range g.Skip {
		if len(c) == 0 {
			return fmt.Errorf("sweep: skip constraint %d is empty", i)
		}
		for axis, listed := range c {
			if axis == workloadKey {
				for _, ref := range listed {
					if !seenW[ref] {
						return fmt.Errorf("sweep: skip constraint %d names unknown workload %q", i, ref)
					}
				}
				continue
			}
			vals := axes[axis]
			if vals == nil {
				return fmt.Errorf("sweep: skip constraint %d names unknown axis %q", i, axis)
			}
			for _, v := range listed {
				if !vals[v] {
					return fmt.Errorf("sweep: skip constraint %d names value %q not on axis %q", i, v, axis)
				}
			}
		}
	}
	return nil
}

// Cells validates the grid and enumerates its cells in deterministic
// order: workloads outermost, then the axes in declared order (the
// first axis varying slowest). Skipped cells are absent but their
// indices are not reused, so a cell's Index identifies the same
// coordinates in every run of the same grid.
func (g *Grid) Cells() ([]Cell, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	var out []Cell
	idx := 0
	coords := make([]Coord, len(g.Axes))
	var walk func(ref string, axis int)
	walk = func(ref string, axis int) {
		if axis == len(g.Axes) {
			cell := Cell{Index: idx, Workload: ref, Coords: append([]Coord(nil), coords...)}
			idx++
			for _, c := range g.Skip {
				if c.matches(ref, cell.Coords) {
					return
				}
			}
			out = append(out, cell)
			return
		}
		ax := g.Axes[axis]
		for _, v := range ax.Values {
			coords[axis] = Coord{Axis: ax.Name, Value: v.Name}
			walk(ref, axis+1)
		}
	}
	for _, ref := range g.Workloads {
		walk(ref, 0)
	}
	return out, nil
}

// value returns the named value of the named axis (Validate
// guarantees existence for coordinates produced by Cells).
func (g *Grid) value(axis, name string) *Value {
	for i := range g.Axes {
		if g.Axes[i].Name != axis {
			continue
		}
		for j := range g.Axes[i].Values {
			if g.Axes[i].Values[j].Name == name {
				return &g.Axes[i].Values[j]
			}
		}
	}
	return nil
}

// knobsFor collects the knob deltas of one cell: the grid base first,
// then each coordinate's value in axis order.
func (g *Grid) knobsFor(cell Cell) []*darco.Knobs {
	ks := make([]*darco.Knobs, 0, 1+len(cell.Coords))
	if g.Base != nil {
		ks = append(ks, g.Base)
	}
	for _, co := range cell.Coords {
		if v := g.value(co.Axis, co.Value); v != nil {
			ks = append(ks, &v.Knobs)
		}
	}
	return ks
}

// baselineCoords returns the declared baseline cell's coordinates in
// axis order (nil when the grid declares none).
func (g *Grid) baselineCoords() []Coord {
	if len(g.Baseline) == 0 {
		return nil
	}
	coords := make([]Coord, 0, len(g.Axes))
	for _, ax := range g.Axes {
		v, ok := g.Baseline[ax.Name]
		if !ok {
			return nil
		}
		coords = append(coords, Coord{Axis: ax.Name, Value: v})
	}
	return coords
}

// DecodeGrid reads one Grid in JSON form through strictjson.Decode
// (a typo in a knob name must not silently sweep nothing, nor a
// corrupt file sweep its first value) and validates the result.
func DecodeGrid(r io.Reader) (*Grid, error) {
	var g Grid
	if err := strictjson.Decode(r, &g); err != nil {
		return nil, fmt.Errorf("sweep: decode grid: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// JobFor is the one cell→Job mapper of the grid engine (and of every
// figure sweep built on it): it folds the knob deltas into the base
// configuration in order and builds the session job for the
// already-scaled program. The job keeps the workload reference, so it
// stays runnable on a remote session.
func JobFor(p workload.Program, ref string, scale float64, base darco.Config, knobs ...*darco.Knobs) (darco.Job, error) {
	cfg := base
	for _, k := range knobs {
		if err := k.Apply(&cfg); err != nil {
			return darco.Job{}, fmt.Errorf("sweep: %s: %w", p.Name(), err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return darco.Job{}, fmt.Errorf("sweep: %s: %w", p.Name(), err)
	}
	j := darco.JobForProgram(p, scale)
	j.Config, j.Ref = cfg, ref
	return j, nil
}
