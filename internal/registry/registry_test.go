package registry

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestOrderAndSortedListings(t *testing.T) {
	r := New[int]("dup %q")
	for i, name := range []string{"sched", "constprop", "dce"} {
		r.Register(name, i)
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"sched", "constprop", "dce"}) {
		t.Errorf("Names = %v, want registration order", got)
	}
	if got := r.Sorted(); !reflect.DeepEqual(got, []string{"constprop", "dce", "sched"}) {
		t.Errorf("Sorted = %v", got)
	}
	if v, ok := r.Lookup("dce"); !ok || v != 2 {
		t.Errorf("Lookup(dce) = %d, %v", v, ok)
	}
	if _, ok := r.Lookup("rle"); ok {
		t.Error("Lookup of an unregistered name hit")
	}
	// The listings are copies: a caller sorting one must not reorder the
	// registry.
	r.Sorted()[0] = "x"
	r.Names()[0] = "x"
	if got := r.Names()[0]; got != "sched" {
		t.Errorf("listing aliases registry state: %q", got)
	}
}

func TestDuplicatePanicsWithCallerMessage(t *testing.T) {
	r := New[int]("tol: duplicate pass %q")
	r.Register("dce", 1)
	defer func() {
		if got, want := recover(), `tol: duplicate pass "dce"`; got != want {
			t.Errorf("panic = %v, want %q", got, want)
		}
		if v, _ := r.Lookup("dce"); v != 1 {
			t.Errorf("duplicate registration replaced the value: %d", v)
		}
	}()
	r.Register("dce", 2)
}

// TestConcurrentRegisterAndLookup is the late-Register case: sources
// registered while session workers resolve references. Run under -race.
func TestConcurrentRegisterAndLookup(t *testing.T) {
	r := New[int]("dup %q")
	r.Register("base", -1)
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Register(fmt.Sprintf("w%d-%d", w, i), i)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if v, ok := r.Lookup("base"); !ok || v != -1 {
					t.Errorf("Lookup(base) = %d, %v", v, ok)
				}
				_ = r.Sorted()
			}
		}()
	}
	wg.Wait()
	if got := len(r.Names()); got != 1+writers*perWriter {
		t.Errorf("%d names registered, want %d", got, 1+writers*perWriter)
	}
}
