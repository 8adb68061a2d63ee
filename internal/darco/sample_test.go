package darco

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/sample"
	"repro/internal/timing"
	"repro/internal/tol"
	"repro/internal/workload"
)

// sampleTestTOL keeps the sampled-run tests fast: scaled-down TOL
// thresholds so all tiers engage on small programs.
func sampleTestTOL() tol.Config {
	tc := tol.DefaultConfig()
	tc.SBThreshold = 20
	return tc
}

// openWorkload is the job for ref at scale under sampleTestTOL,
// sampled under plan when it is non-nil.
func openWorkload(t *testing.T, ref string, scale float64, plan *sample.Config) Job {
	t.Helper()
	job, err := WithWorkload(ref, scale)
	if err != nil {
		t.Fatalf("open %s: %v", ref, err)
	}
	job.Config.TOL = sampleTestTOL()
	job.Config.Sampling = plan
	return job
}

// TestSampledRunExactFunctionalOutputs pins the sampled path end to
// end through the controller: exact TOL statistics and final state,
// estimate report attached, estimated timing populated.
func TestSampledRunExactFunctionalOutputs(t *testing.T) {
	job := openWorkload(t, "phased:401.bzip2+462.libquantum", 0.05, nil)
	p, err := job.Program.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	full, err := job.Config.runWith(context.Background(), p, runEnv{})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	job.Config.Sampling = &sample.Config{Interval: 5_000, Every: 3, Warmup: 1_000}
	sampled, err := job.Config.runWith(context.Background(), p, runEnv{})
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if sampled.Sampled == nil {
		t.Fatal("sampled run carries no report")
	}
	if full.Sampled != nil {
		t.Fatal("full run carries a sampling report")
	}
	gotStats, _ := json.Marshal(&sampled.TOL)
	wantStats, _ := json.Marshal(&full.TOL)
	if !bytes.Equal(gotStats, wantStats) {
		t.Errorf("TOL stats differ between sampled and full run:\nsampled: %s\nfull:    %s", gotStats, wantStats)
	}
	if d := sampled.Final.Diff(&full.Final); d != "" {
		t.Errorf("final guest state differs: %s", d)
	}
	if sampled.Sampled.HostInsts != full.Timing.TotalInsts() {
		t.Errorf("stream length: sampled (exact) %d, full %d", sampled.Sampled.HostInsts, full.Timing.TotalInsts())
	}
	est, fullCycles := float64(sampled.Sampled.EstCycles), float64(full.Timing.Cycles)
	if est < 0.5*fullCycles || est > 1.5*fullCycles {
		t.Errorf("cycle estimate %v too far from full run's %v", est, fullCycles)
	}
	if sampled.Timing.Cycles != sampled.Sampled.EstCycles {
		t.Errorf("Result.Timing.Cycles %d != report estimate %d", sampled.Timing.Cycles, sampled.Sampled.EstCycles)
	}
}

// TestSampledSessionDeterminism is the -jobs determinism satellite: a
// sampled run through a multi-worker session must be byte-identical to
// a direct single-threaded run.
func TestSampledSessionDeterminism(t *testing.T) {
	job := openWorkload(t, "synthetic:429.mcf", 0.05, &sample.Config{Interval: 4_000, Every: 2, Warmup: 500})
	p, err := job.Program.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	direct, err := job.Config.runWith(context.Background(), p, runEnv{})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	sess := NewSession(WithWorkers(4))
	viaSession, err := sess.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("session run: %v", err)
	}
	got, _ := json.Marshal(viaSession)
	want, _ := json.Marshal(direct)
	if !bytes.Equal(got, want) {
		t.Errorf("sampled result differs between 4-worker session and direct run:\nsession: %.200s\ndirect:  %.200s", got, want)
	}
}

// TestSampledAndFullRunsDoNotShareCacheKey pins that Sampling
// participates in the memo key: a session must never serve a sampled
// job a full run's cached result or vice versa.
func TestSampledAndFullRunsDoNotShareCacheKey(t *testing.T) {
	fullJob := openWorkload(t, "synthetic:429.mcf", 0.05, nil)
	sampledJob := fullJob
	sampledJob.Config.Sampling = &sample.Config{Interval: 4_000, Every: 2}

	k1, err := fullJob.Key()
	if err != nil {
		t.Fatalf("full key: %v", err)
	}
	k2, err := sampledJob.Key()
	if err != nil {
		t.Fatalf("sampled key: %v", err)
	}
	if k1 == k2 {
		t.Fatalf("sampled and full jobs share memo key %s", k1)
	}
}

// TestSnapshotRoundTripPhasedWorkload is the checkpoint byte-identity
// satellite for a phased: composite workload: pause mid-run across the
// phase structure, snapshot, restore, resume, and compare the stream
// and final statistics with an uninterrupted run.
func TestSnapshotRoundTripPhasedWorkload(t *testing.T) {
	job := openWorkload(t, "phased:401.bzip2+462.libquantum", 0.05, nil)
	p, err := job.Program.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := sampleTestTOL()

	drain := func(e *tol.Engine) []timing.DynInst {
		var out []timing.DynInst
		var buf [256]timing.DynInst
		for {
			n := e.NextBatch(buf[:])
			if n == 0 {
				return out
			}
			out = append(out, buf[:n]...)
		}
	}

	ref := tol.NewEngine(cfg, p)
	full := drain(ref)
	if err := ref.Err(); err != nil || !ref.Halted() {
		t.Fatalf("reference run: err=%v halted=%v", err, ref.Halted())
	}

	a := tol.NewEngine(cfg, p)
	a.SetStopAfter(ref.Stats.DynTotal() / 2)
	prefix := drain(a)
	if !a.Paused() {
		t.Fatal("engine did not pause")
	}
	sn, err := a.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	blob, err := json.Marshal(sn)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded tol.EngineSnapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	b, err := tol.RestoreEngine(p, &decoded)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	suffix := drain(b)
	if err := b.Err(); err != nil || !b.Halted() {
		t.Fatalf("resumed run: err=%v halted=%v", err, b.Halted())
	}
	if got, want := len(prefix)+len(suffix), len(full); got != want {
		t.Fatalf("stream length: %d+%d=%d, uninterrupted %d", len(prefix), len(suffix), got, want)
	}
	for i := range full {
		d := prefix
		j := i
		if i >= len(prefix) {
			d, j = suffix, i-len(prefix)
		}
		if d[j] != full[i] {
			t.Fatalf("stream diverges at instruction %d", i)
		}
	}
	gotStats, _ := json.Marshal(&b.Stats)
	wantStats, _ := json.Marshal(&ref.Stats)
	if !bytes.Equal(gotStats, wantStats) {
		t.Fatalf("final stats differ:\nresumed:       %s\nuninterrupted: %s", gotStats, wantStats)
	}
	if d := b.GuestState().Diff(ref.GuestState()); d != "" {
		t.Fatalf("final guest state differs: %s", d)
	}
	_ = workload.Fingerprint(job.Program) // phased programs are fingerprintable (bundle cache key)
}
