package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/darco"
	"repro/internal/emu"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// Probes are micro-measurements of one layer's exported API on fixed
// inputs. They do not depend on the workload being traced and run at
// the end of every traced run, so a layer's unit cost can be read next
// to any workload's layer split. Each is sized to a fraction of a
// second; scale shrinks them further for go test.

// per is d spread over n operations, in the given unit.
func per(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// runProbes runs every probe. A probe that fails reports its error and
// the metrics it could not measure are absent, which the caller turns
// into an incorrect run.
func runProbes(ctx context.Context, rec *recorder, scale float64, outDir string) ([]metric, []error) {
	var out []metric
	var errs []error
	for _, p := range []func(context.Context, *recorder, float64, string) ([]metric, error){
		probeGuest, probeEmu, probeTiers, probeTimingReplay, probeSnapshot, probeDarcoStore, probeServe, probeSweep,
	} {
		s, err := p(ctx, rec, scale, outDir)
		if err != nil {
			errs = append(errs, err)
		}
		out = append(out, s...)
	}
	return out, errs
}

// probeImage builds one catalog program.
func probeImage(ref string, scale float64) (*guest.Program, error) {
	_, img, err := buildProgram(nil, ref, scale)
	return img, err
}

// drain runs an engine until its stream ends and returns the stream
// length.
func drain(eng *tol.Engine) uint64 {
	var buf [1024]timing.DynInst
	var host uint64
	for {
		n := eng.NextBatch(buf[:])
		if n == 0 {
			return host
		}
		host += uint64(n)
	}
}

// probeGuest: guest.ISA.DecodeAt over every static instruction of the
// catalog images (x86 and rv32), and a warmed DecodeCache.Step loop.
func probeGuest(_ context.Context, _ *recorder, scale float64, _ string) ([]metric, error) {
	decode := func(refs []string) (float64, error) {
		var insts int
		var d time.Duration
		for _, ref := range refs {
			img, err := probeImage(ref, 0.1)
			if err != nil {
				return 0, err
			}
			isa, err := guest.ISAOf(img)
			if err != nil {
				return 0, err
			}
			reps := max(int(20*scale), 1)
			start := time.Now()
			for r := 0; r < reps; r++ {
				for off := 0; off < len(img.Code); {
					in, err := isa.DecodeAt(img.Code[off:], mem.GuestCodeBase+uint32(off))
					if err != nil {
						return 0, fmt.Errorf("decode %s at +%d: %w", ref, off, err)
					}
					off += int(in.Size)
					insts++
				}
			}
			d += time.Since(start)
		}
		return per(d, insts, time.Nanosecond), nil
	}
	x86, err := decode(workload.Names())
	if err != nil {
		return nil, err
	}
	var rvRefs []string
	for _, s := range workload.RV32Catalog() {
		rvRefs = append(rvRefs, "rv32:"+s.Name)
	}
	rv, err := decode(rvRefs)
	if err != nil {
		return nil, err
	}

	img, err := probeImage("462.libquantum", 4*scale)
	if err != nil {
		return nil, err
	}
	isa, _ := guest.ISAOf(img)
	m := mem.NewSparse()
	st := img.LoadInto(m)
	dec := guest.NewDecodeCache(isa)
	var res guest.StepResult
	steps := 0
	start := time.Now()
	for !res.Halted {
		if err := dec.Step(&st, m, &res); err != nil {
			return nil, fmt.Errorf("step probe: %w", err)
		}
		steps++
	}
	step := per(time.Since(start), steps, time.Nanosecond)
	return []metric{
		single("guest.decode_ns_per_inst", "ns", x86),
		single("guest.decode_rv32_ns_per_inst", "ns", rv),
		single("guest.step_ns_per_inst", "ns", step),
	}, nil
}

// probeEmu: the reference interpreter alone, and what co-simulation
// adds to a functional engine run (cosim on minus cosim off).
func probeEmu(_ context.Context, _ *recorder, scale float64, _ string) ([]metric, error) {
	var emuD, onD, offD time.Duration
	var emuInsts, guestInsts uint64
	for _, ref := range hotSet {
		img, err := probeImage(ref, 2*scale)
		if err != nil {
			return nil, err
		}
		e := emu.New(img)
		start := time.Now()
		if err := e.Run(1 << 40); err != nil {
			return nil, fmt.Errorf("emu %s: %w", ref, err)
		}
		emuD += time.Since(start)
		emuInsts += e.DynInsts
		for _, cosim := range []bool{false, true} {
			cfg := tol.DefaultConfig()
			cfg.Cosim = cosim
			start := time.Now()
			eng := tol.NewEngine(cfg, img)
			drain(eng)
			d := time.Since(start)
			if err := eng.Err(); err != nil {
				return nil, fmt.Errorf("cosim probe %s: %w", ref, err)
			}
			if cosim {
				onD += d
				guestInsts += eng.Stats.DynTotal()
			} else {
				offD += d
			}
		}
	}
	return []metric{
		single("emu.run_ns_per_guest_inst", "ns", per(emuD, int(emuInsts), time.Nanosecond)),
		single("tol.cosim_ns_per_guest_inst", "ns", per(onD-offD, int(guestInsts), time.Nanosecond)),
	}, nil
}

// probeTiers isolates each execution tier of the engine by
// configuration only, on the hot set: IM (translation threshold out of
// reach), BBM (O0: no superblocks) and SBM (O2, the default). Each run
// stops after a fixed number of guest instructions. The cold start is a
// fresh engine's first 50 000 guest instructions of every catalog
// program.
func probeTiers(_ context.Context, _ *recorder, scale float64, _ string) ([]metric, error) {
	images := make([]*guest.Program, len(hotSet))
	for i, ref := range hotSet {
		img, err := probeImage(ref, 16) // long enough never to halt before the stop
		if err != nil {
			return nil, err
		}
		images[i] = img
	}
	tier := func(name string, stopAfter float64, mutate func(*tol.Config)) (metric, error) {
		var d time.Duration
		var insts uint64
		for i, ref := range hotSet {
			img := images[i]
			cfg := tol.DefaultConfig()
			cfg.Cosim = false
			mutate(&cfg)
			eng := tol.NewEngine(cfg, img)
			eng.SetStopAfter(uint64(stopAfter * scale))
			start := time.Now()
			drain(eng)
			d += time.Since(start)
			if err := eng.Err(); err != nil {
				return metric{}, fmt.Errorf("%s %s: %w", name, ref, err)
			}
			insts += eng.Stats.DynTotal()
		}
		return single(name, "ns", per(d, int(insts), time.Nanosecond)), nil
	}
	var out []metric
	for _, t := range []struct {
		name      string
		stopAfter float64
		mutate    func(*tol.Config)
	}{
		{"tol.im_ns_per_guest_inst", 500_000, func(c *tol.Config) { c.BBThreshold = 1 << 30 }},
		{"tol.bbm_ns_per_guest_inst", 4_000_000, func(c *tol.Config) { _ = tol.ApplyOptLevel(c, 0) }},
		{"tol.sbm_ns_per_guest_inst", 4_000_000, func(*tol.Config) {}},
	} {
		s, err := tier(t.name, t.stopAfter, t.mutate)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}

	var d time.Duration
	n := 0
	for _, ref := range workload.Names() {
		img, err := probeImage(ref, 0.1)
		if err != nil {
			return out, err
		}
		cfg := tol.DefaultConfig()
		cfg.Cosim = false
		start := time.Now()
		eng := tol.NewEngine(cfg, img)
		eng.SetStopAfter(50_000)
		drain(eng)
		d += time.Since(start)
		if err := eng.Err(); err != nil {
			return out, fmt.Errorf("coldstart %s: %w", ref, err)
		}
		n++
	}
	return append(out, single("tol.coldstart_us_per_program", "us", per(d, n, time.Microsecond))), nil
}

// probeTimingReplay: the timing model alone, fed a recorded stream
// from memory (no engine behind it), shared mode.
func probeTimingReplay(ctx context.Context, _ *recorder, scale float64, _ string) ([]metric, error) {
	img, err := probeImage("470.lbm", 16)
	if err != nil {
		return nil, err
	}
	cfg := tol.DefaultConfig()
	cfg.Cosim = false
	eng := tol.NewEngine(cfg, img)
	insts := make([]timing.DynInst, int(2_000_000*scale))
	filled := 0
	for filled < len(insts) {
		n := eng.NextBatch(insts[filled:])
		if n == 0 {
			break
		}
		filled += n
	}
	if err := eng.Err(); err != nil {
		return nil, fmt.Errorf("replay probe: %w", err)
	}
	sim := timing.NewSimulator(timing.DefaultConfig(), timing.ModeShared)
	start := time.Now()
	res, err := sim.RunContext(ctx, &timing.SliceSource{Insts: insts[:filled]})
	if err != nil {
		return nil, fmt.Errorf("replay probe: %w", err)
	}
	return []metric{single("timing.replay_ns_per_host_inst", "ns",
		per(time.Since(start), int(res.TotalInsts()), time.Nanosecond))}, nil
}

// probeSnapshot pauses a functional engine at the midpoint of each
// sampled_long program and times the four snapshot calls the sampled
// path makes per interval.
func probeSnapshot(_ context.Context, rec *recorder, scale float64, _ string) ([]metric, error) {
	var capD, encD, decD, resD time.Duration
	var size int
	for _, ref := range sampledSet {
		img, err := probeImage(ref, scale)
		if err != nil {
			return nil, err
		}
		cfg := tol.DefaultConfig()
		cfg.Cosim = false
		whole := tol.NewEngine(cfg, img)
		drain(whole)
		eng := tol.NewEngine(cfg, img)
		eng.SetStopAfter(whole.Stats.DynTotal() / 2)
		drain(eng)
		if !eng.Paused() {
			return nil, fmt.Errorf("snapshot probe %s: engine did not pause", ref)
		}
		timed := func(name string, total *time.Duration, f func() error) error {
			id := rec.begin(name, ref, 0)
			start := time.Now()
			err := f()
			*total += time.Since(start)
			rec.end(id)
			return err
		}
		var m *snapshot.Machine
		var raw []byte
		err = errors.Join(
			timed(spanSnapshotCapture, &capD, func() (err error) { m, err = snapshot.Capture("", eng, nil); return }),
			timed(spanSnapshotEncode, &encD, func() (err error) { raw, err = snapshot.Encode(m); return }),
			timed(spanSnapshotDecode, &decD, func() (err error) { m, err = snapshot.Decode(raw); return }),
			timed(spanSnapshotRestore, &resD, func() (err error) { _, _, err = m.Restore(img); return }),
		)
		if err != nil {
			return nil, fmt.Errorf("snapshot probe %s: %w", ref, err)
		}
		size += len(raw)
	}
	n := len(sampledSet)
	return []metric{
		single("snapshot.capture_ms", "ms", per(capD, n, time.Millisecond)),
		single("snapshot.encode_ms", "ms", per(encD, n, time.Millisecond)),
		single("snapshot.decode_ms", "ms", per(decD, n, time.Millisecond)),
		single("snapshot.restore_ms", "ms", per(resD, n, time.Millisecond)),
		single("snapshot.bytes", "B", float64(size/n)),
	}, nil
}

// probeDarcoStore: a small batch through a one-worker darco.Session
// (what the session adds around the simulations, memo hits, key
// derivation, record encode/decode), then the same records through a
// temporary store.
func probeDarcoStore(ctx context.Context, rec *recorder, scale float64, outDir string) ([]metric, error) {
	cfg := darco.DefaultConfig()
	cfg.TOL.Cosim = false
	var jobs []darco.Job
	for _, ref := range workload.Names()[:8] {
		job, err := darco.WithWorkload(ref, 0.2*scale, darco.WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	var inJobs time.Duration
	started := map[string]time.Time{}
	sess := darco.NewSession(darco.WithWorkers(1), darco.WithEvents(func(ev darco.Event) {
		switch ev.Kind {
		case darco.EventStarted:
			started[ev.Job] = time.Now()
		case darco.EventDone, darco.EventFailed:
			inJobs += time.Since(started[ev.Job])
		}
	}))
	start := time.Now()
	batch := sess.RunBatch(ctx, jobs)
	overhead := time.Since(start) - inJobs
	start = time.Now()
	sess.RunBatch(ctx, jobs)
	memo := time.Since(start)

	recs := make([]darco.Record, len(batch))
	keys := make([]string, len(batch))
	for i, br := range batch {
		if br.Err != nil {
			return nil, fmt.Errorf("darco probe: %w", br.Err)
		}
		recs[i] = darco.NewRecord(jobs[i].Name, jobs[i].Program.Meta().Suite, jobs[i].Scale, cfg.Mode, br.Result, nil)
	}
	const keyReps = 50
	start = time.Now()
	for r := 0; r < keyReps; r++ {
		for i := range jobs {
			k, err := jobs[i].Key()
			if err != nil {
				return nil, fmt.Errorf("darco probe: %w", err)
			}
			keys[i] = k
		}
	}
	keyD := time.Since(start)
	var enc bytes.Buffer
	start = time.Now()
	if err := darco.EncodeRecords(&enc, recs); err != nil {
		return nil, fmt.Errorf("darco probe: %w", err)
	}
	encD := time.Since(start)
	encBytes := enc.Len()
	start = time.Now()
	if _, err := darco.DecodeRecords(&enc); err != nil {
		return nil, fmt.Errorf("darco probe: %w", err)
	}
	decD := time.Since(start)
	out := []metric{
		single("darco.session_overhead_s", "s", overhead.Seconds()),
		single("darco.memo_hit_us", "us", per(memo, len(jobs), time.Microsecond)),
		single("darco.key_us", "us", per(keyD, keyReps*len(jobs), time.Microsecond)),
		single("darco.record_encode_s", "s", encD.Seconds()),
		single("darco.record_decode_s", "s", decD.Seconds()),
		single("darco.record_bytes", "B", float64(encBytes)),
	}

	dir, err := os.MkdirTemp(outDir, "probe-store-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return out, err
	}
	// Each record goes in under eight keys, for a store of 64 entries.
	const copies = 8
	var putD, getD, missD time.Duration
	for c := 0; c < copies; c++ {
		for i := range recs {
			key := fmt.Sprintf("%s#%d", keys[i], c)
			id := rec.begin(spanStorePut, key, 0)
			start := time.Now()
			err := st.Put(key, &recs[i])
			putD += time.Since(start)
			rec.end(id)
			if err != nil {
				return out, fmt.Errorf("store probe: %w", err)
			}
		}
	}
	n := copies * len(recs)
	for c := 0; c < copies; c++ {
		for i := range recs {
			key := fmt.Sprintf("%s#%d", keys[i], c)
			id := rec.begin(spanStoreGet, key, 0)
			start := time.Now()
			_, ok, err := st.Get(key)
			getD += time.Since(start)
			rec.end(id)
			if err != nil || !ok {
				return out, fmt.Errorf("store probe: get %q: ok=%v err=%v", key, ok, err)
			}
			start = time.Now()
			_, ok, _ = st.Get(key + "-absent")
			missD += time.Since(start)
			if ok {
				return out, fmt.Errorf("store probe: absent key %q found", key)
			}
		}
	}
	start = time.Now()
	metas, err := st.List()
	listD := time.Since(start)
	if err != nil || len(metas) != n {
		return out, fmt.Errorf("store probe: list: %d entries, err=%v", len(metas), err)
	}
	_, total, err := st.Usage()
	if err != nil {
		return out, fmt.Errorf("store probe: %w", err)
	}
	start = time.Now()
	if _, _, err := st.EvictToSize(total / 2); err != nil {
		return out, fmt.Errorf("store probe: %w", err)
	}
	evictD := time.Since(start)
	return append(out,
		single("store.put_us", "us", per(putD, n, time.Microsecond)),
		single("store.get_us", "us", per(getD, n, time.Microsecond)),
		single("store.get_miss_us", "us", per(missD, n, time.Microsecond)),
		single("store.list_ms", "ms", per(listD, 1, time.Millisecond)),
		single("store.evict_ms", "ms", per(evictD, 1, time.Millisecond)),
		single("store.bytes_per_entry", "B", float64(total/int64(n))),
	), nil
}

// probeServe: one HTTP exchange with an idle server over loopback.
func probeServe(ctx context.Context, _ *recorder, scale float64, _ string) ([]metric, error) {
	gs := startGridServer(nil)
	defer gs.stop()
	n := max(int(200*scale), 10)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := gs.client.Health(ctx); err != nil {
			return nil, fmt.Errorf("serve probe: %w", err)
		}
	}
	return []metric{single("serve.http_roundtrip_us", "us", per(time.Since(start), n, time.Microsecond))}, nil
}

// probeSweep: decoding and enumerating the committed grid.
func probeSweep(_ context.Context, _ *recorder, scale float64, _ string) ([]metric, error) {
	n := max(int(100*scale), 5)
	var grid *sweep.Grid
	start := time.Now()
	for i := 0; i < n; i++ {
		g, err := sweep.DecodeGrid(bytes.NewReader(servedGrid))
		if err != nil {
			return nil, fmt.Errorf("sweep probe: %w", err)
		}
		grid = g
	}
	decD := time.Since(start)
	var cells []sweep.Cell
	start = time.Now()
	for i := 0; i < n; i++ {
		c, err := grid.Cells()
		if err != nil {
			return nil, fmt.Errorf("sweep probe: %w", err)
		}
		cells = c
	}
	return []metric{
		single("sweep.decode_grid_us", "us", per(decD, n, time.Microsecond)),
		single("sweep.enumerate_us", "us", per(time.Since(start), n, time.Microsecond)),
		single("sweep.cells", "count", float64(len(cells))),
	}, nil
}
