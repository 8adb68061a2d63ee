package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/darco"
)

// fullCycles runs the sampled_long programs in full detail, cosim on,
// and returns their exact cycle counts: the reference sample.err_pct is
// measured against.
func fullCycles(ctx context.Context, size sizing) (map[string]uint64, error) {
	out := map[string]uint64{}
	for _, ref := range sampledSet {
		_, img, err := buildProgram(nil, ref, size.sampledScale)
		if err != nil {
			return nil, err
		}
		res, err := darco.Run(ctx, img, darco.WithCosim(true))
		if err != nil {
			return nil, fmt.Errorf("full run of %s: %w", ref, err)
		}
		out[ref] = res.Timing.Cycles
	}
	return out, nil
}

// verifyFullCycles re-derives the full-run cycle counts and checks the
// committed ones against them (traced runs of sampled_long only: it
// costs as much as the workload).
func verifyFullCycles(ctx context.Context, env *env) error {
	got, err := fullCycles(ctx, env.size)
	if err != nil {
		return err
	}
	for ref, want := range env.golden.FullCycles[env.size.key] {
		if got[ref] != want {
			return fmt.Errorf("full run of %s takes %d cycles, golden.json has %d", ref, got[ref], want)
		}
	}
	return nil
}

// writeGolden regenerates golden.json for seed 1 at both sizes. Every
// workload runs one pass with co-simulation on, so each committed
// digest comes from a run internal/emu checked instruction by
// instruction, not only from the code path the timed passes take.
func writeGolden(ctx context.Context, path, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	g := &golden{Digests: map[string]string{}, FullCycles: map[string]map[string]uint64{}}
	for _, size := range []sizing{fullSize, smokeSize} {
		fc, err := fullCycles(ctx, size)
		if err != nil {
			return err
		}
		g.FullCycles[size.key] = fc
		env := &env{seed: 1, size: size, outDir: outDir, golden: g}
		for _, w := range workloads {
			pass, err := w.setup(env, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res := pass(ctx, nil, true)
			if res.failed != 0 {
				return fmt.Errorf("%s: %d of %d operations failed: %v", w.name, res.failed, res.ops, res.errs)
			}
			for group, lines := range res.groups {
				g.Digests[size.key+"/"+group] = digest(lines)
			}
			fmt.Printf("%s %s: %d operations\n", size.key, w.name, res.ops)
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
