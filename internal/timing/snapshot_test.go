package timing

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRestoreRejectsForeignSnapshots: a SimSnapshot in the shape
// before structure sets (one field per structure kind), one with the
// wrong number of sets for its mode, and one whose arrays do not match
// its Config all fail RestoreSimulator with an error, never a panic.
func TestRestoreRejectsForeignSnapshots(t *testing.T) {
	fresh := func(mode Mode) map[string]json.RawMessage {
		blob, err := json.Marshal(NewSimulator(DefaultConfig(), mode).Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	oldShape := fresh(ModeShared)
	delete(oldShape, "sets")
	for _, k := range []string{"l1i", "l1d", "l2", "l1_tlb", "l2_tlb"} {
		oldShape[k] = json.RawMessage(`[{"tags":[0],"valid":[1],"plru":[0],"stats":{}},null]`)
	}
	oldShape["bp"] = json.RawMessage(`[{"history":0,"counters":[0]},null]`)
	oldShape["pref"] = json.RawMessage(`[{"tags":[0],"useful":0},null]`)

	splitAsShared := fresh(ModeSplit)
	splitAsShared["mode"] = json.RawMessage(`0`)

	shrunk := fresh(ModeShared)
	var cfg Config
	if err := json.Unmarshal(shrunk["config"], &cfg); err != nil {
		t.Fatal(err)
	}
	cfg.L2.Size /= 2
	shrunk["config"], _ = json.Marshal(cfg)

	for name, m := range map[string]map[string]json.RawMessage{
		"old shape":       oldShape,
		"split as shared": splitAsShared,
		"smaller L2":      shrunk,
	} {
		blob, _ := json.Marshal(m)
		var sn SimSnapshot
		if err := json.Unmarshal(blob, &sn); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := RestoreSimulator(&sn); err == nil || !strings.HasPrefix(err.Error(), "timing: ") {
			t.Errorf("%s: RestoreSimulator error = %v, want a timing error", name, err)
		}
	}
}

// TestRestoreRejectsOutOfRangeState: a snapshot whose queued
// instructions or fetch blocker index past the simulator's owner,
// component or scoreboard tables, whose mode is unknown, or whose fetch
// unit is in a state no run produces (an unknown state, a branch wait
// on no mispredicted IQ entry, a stall longer than the config allows, a
// pending instruction with no room in the batch) fails RestoreSimulator
// with an error instead of panicking or never advancing on resume. The
// "control" rows are states a paused run can hold; they restore and
// run to completion.
func TestRestoreRejectsOutOfRangeState(t *testing.T) {
	ok := DynInst{PC: 0x1000, Owner: OwnerTOL, Comp: CompIM, Dst: 3, Src1: NumSBRegs - 1, Src2: RegNone}
	doctored := func(f func(*DynInst)) DynInst {
		d := ok
		f(&d)
		return d
	}
	owner5 := doctored(func(d *DynInst) { d.Owner = 5 })
	comp := doctored(func(d *DynInst) { d.Comp = NumComponents })
	dst := doctored(func(d *DynInst) { d.Dst = NumSBRegs })
	src1 := doctored(func(d *DynInst) { d.Src1 = 200 })
	src2 := doctored(func(d *DynInst) { d.Src2 = RegNone - 1 })

	cases := []struct {
		name   string
		doctor func(*SimSnapshot)
	}{
		{"control", func(*SimSnapshot) {}},
		{"control branch wait", func(sn *SimSnapshot) {
			sn.FetchState, sn.StalledBranch = uint8(fetchBranchWait), 0
			sn.IQ[0].Mispredict = true
		}},
		{"control i-miss", func(sn *SimSnapshot) {
			sn.FetchState, sn.Cycle = uint8(fetchIMiss), 100
			sn.FetchReadyAt = sn.Cycle + uint64(sn.Cfg.L2.HitLatency+sn.Cfg.MemLatency)
		}},
		{"iq owner", func(sn *SimSnapshot) { sn.IQ = []IQEntry{{Inst: ok}, {Inst: owner5}} }},
		{"iq component", func(sn *SimSnapshot) { sn.IQ = []IQEntry{{Inst: comp}} }},
		{"iq dst", func(sn *SimSnapshot) { sn.IQ = []IQEntry{{Inst: dst}} }},
		{"iq src1", func(sn *SimSnapshot) { sn.IQ = []IQEntry{{Inst: src1}} }},
		{"iq src2", func(sn *SimSnapshot) { sn.IQ = []IQEntry{{Inst: src2}} }},
		{"pending owner", func(sn *SimSnapshot) { sn.Pending = &owner5 }},
		{"pending src2", func(sn *SimSnapshot) { sn.Pending = &src2 }},
		{"batch owner", func(sn *SimSnapshot) { sn.Batch = []DynInst{ok, owner5} }},
		{"batch dst", func(sn *SimSnapshot) { sn.Batch = []DynInst{dst} }},
		{"mode", func(sn *SimSnapshot) { sn.Mode = NumModes }},
		{"fetch block owner", func(sn *SimSnapshot) { sn.FetchBlockOwner = NumOwners }},
		{"fetch block component", func(sn *SimSnapshot) { sn.FetchBlockComp = NumComponents }},
		{"fetch state 4", func(sn *SimSnapshot) { sn.FetchState = 4 }},
		{"fetch state 9", func(sn *SimSnapshot) { sn.FetchState = 9 }},
		{"branch wait on none", func(sn *SimSnapshot) { sn.FetchState = uint8(fetchBranchWait) }},
		{"branch wait past iq", func(sn *SimSnapshot) {
			sn.FetchState, sn.StalledBranch = uint8(fetchBranchWait), 5
			sn.IQ[0].Mispredict = true
		}},
		{"branch wait empty iq", func(sn *SimSnapshot) {
			sn.FetchState, sn.StalledBranch, sn.IQ = uint8(fetchBranchWait), 5, nil
		}},
		{"branch wait on predicted", func(sn *SimSnapshot) { sn.FetchState, sn.StalledBranch = uint8(fetchBranchWait), 0 }},
		{"stalled branch while free", func(sn *SimSnapshot) {
			sn.StalledBranch = 0
			sn.IQ[0].Mispredict = true
		}},
		{"i-miss stall", func(sn *SimSnapshot) { sn.FetchState, sn.FetchReadyAt = uint8(fetchIMiss), 1<<62 }},
		{"redirect stall", func(sn *SimSnapshot) {
			sn.FetchState, sn.Cycle = uint8(fetchRedirect), 100
			sn.FetchReadyAt = sn.Cycle + 2 + uint64(sn.Cfg.MispredictPenalty)
		}},
		{"pending past full batch", func(sn *SimSnapshot) { sn.Batch = make([]DynInst, defaultStreamBatch) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sn := NewSimulator(DefaultConfig(), ModeShared).Snapshot()
			sn.IQ = []IQEntry{{Inst: ok}}
			sn.Pending = &ok
			sn.Batch = []DynInst{ok}
			c.doctor(sn)
			s, err := RestoreSimulator(sn)
			if strings.HasPrefix(c.name, "control") {
				if err != nil {
					t.Fatalf("in-range snapshot rejected: %v", err)
				}
				if _, err := s.Run(&SliceSource{}); err != nil {
					t.Fatalf("in-range snapshot did not resume: %v", err)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), "timing: ") {
				t.Errorf("RestoreSimulator error = %v, want a timing error", err)
			}
		})
	}
}
