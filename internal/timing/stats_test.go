package timing

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// counters returns every numeric leaf of the Result v points to, nested
// CacheStats and BranchStats arrays included, in field order.
func counters(t *testing.T, v reflect.Value) []reflect.Value {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		return counters(t, v.Elem())
	case reflect.Struct:
		var out []reflect.Value
		for i := range v.NumField() {
			out = append(out, counters(t, v.Field(i))...)
		}
		return out
	case reflect.Array:
		var out []reflect.Value
		for i := range v.Len() {
			out = append(out, counters(t, v.Index(i))...)
		}
		return out
	case reflect.Uint64, reflect.Float64:
		return []reflect.Value{v}
	}
	t.Fatalf("Result holds a %s: teach zip and this test about it", v.Type())
	return nil
}

// TestResultArithmeticCoversEveryCounter: Add, Sub and Scale move every
// counter of a Result, and Scale rounds integer counters to the
// nearest rather than truncating them.
func TestResultArithmeticCoversEveryCounter(t *testing.T) {
	// Leaf i of a holds 2i+3 (odd, so scaling by 1.5 lands on a half)
	// and leaf i of b holds i+1.
	var a, b Result
	for i, v := range counters(t, reflect.ValueOf(&a)) {
		if v.Kind() == reflect.Uint64 {
			v.SetUint(uint64(2*i + 3))
		} else {
			v.SetFloat(float64(2*i+3) + 0.25)
		}
	}
	for i, v := range counters(t, reflect.ValueOf(&b)) {
		if v.Kind() == reflect.Uint64 {
			v.SetUint(uint64(i + 1))
		} else {
			v.SetFloat(float64(i + 1))
		}
	}
	sum := a
	sum.Add(&b)
	diff := a.Sub(&b)
	scaled := a
	scaled.Scale(1.5)

	av, bv := counters(t, reflect.ValueOf(&a)), counters(t, reflect.ValueOf(&b))
	sv, dv, xv := counters(t, reflect.ValueOf(&sum)), counters(t, reflect.ValueOf(&diff)), counters(t, reflect.ValueOf(&scaled))
	for i := range av {
		if av[i].Kind() == reflect.Uint64 {
			x, y := av[i].Uint(), bv[i].Uint()
			want := uint64(3*i + 5) // (2i+3)·1.5 = 3i+4.5, rounded up
			if sv[i].Uint() != x+y || dv[i].Uint() != x-y || xv[i].Uint() != want {
				t.Errorf("integer counter %d: Add %d, Sub %d, Scale %d; want %d, %d, %d",
					i, sv[i].Uint(), dv[i].Uint(), xv[i].Uint(), x+y, x-y, want)
			}
			continue
		}
		x, y := av[i].Float(), bv[i].Float()
		if sv[i].Float() != x+y || dv[i].Float() != x-y || xv[i].Float() != x*1.5 {
			t.Errorf("float counter %d: Add %g, Sub %g, Scale %g; want %g, %g, %g",
				i, sv[i].Float(), dv[i].Float(), xv[i].Float(), x+y, x-y, x*1.5)
		}
	}
}

// TestSubAddsBackAcrossPauses: the Sub deltas between successive
// StopWhen pauses of one run Add back to its final result, integer
// counters exactly and floats to rounding, in every mode.
func TestSubAddsBackAcrossPauses(t *testing.T) {
	insts := batchStream(60_000)
	for mode := Mode(0); mode < NumModes; mode++ {
		sim := NewSimulator(DefaultConfig(), mode)
		cycles := 0
		sim.StopWhen = func() bool { cycles++; return cycles%7_919 == 0 }
		src := &SliceSource{Insts: insts}
		var sum, mark Result
		pauses := 0
		res, err := sim.RunContext(context.Background(), src)
		for ; err == ErrPaused; res, err = sim.RunContext(context.Background(), src) {
			pauses++
			now := sim.ResultSoFar()
			d := now.Sub(&mark)
			sum.Add(&d)
			mark = now
		}
		if err != nil {
			t.Fatal(err)
		}
		if pauses < 3 {
			t.Fatalf("%v: %d pauses, want several", mode, pauses)
		}
		d := res.Sub(&mark)
		sum.Add(&d)
		want, got := counters(t, reflect.ValueOf(res)), counters(t, reflect.ValueOf(&sum))
		for i := range want {
			if want[i].Kind() == reflect.Uint64 {
				if got[i].Uint() != want[i].Uint() {
					t.Errorf("%v: integer counter %d sums to %d, want %d", mode, i, got[i].Uint(), want[i].Uint())
				}
			} else if w, g := want[i].Float(), got[i].Float(); math.Abs(g-w) > 1e-9*math.Abs(w) {
				t.Errorf("%v: float counter %d sums to %g, want %g", mode, i, g, w)
			}
		}
	}
}
