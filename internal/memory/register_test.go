package memory

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
)

func TestRegisterEmptyRead(t *testing.T) {
	r := NewRegister[int]()
	v, ok := r.Read(Free)
	if ok {
		t.Fatal("empty register reported written")
	}
	if v != 0 {
		t.Fatalf("empty register value %d", v)
	}
}

func TestRegisterWriteRead(t *testing.T) {
	r := NewRegister[string]()
	r.Write(Free, "a")
	if v, ok := r.Read(Free); !ok || v != "a" {
		t.Fatalf("got (%q, %v)", v, ok)
	}
	r.Write(Free, "b")
	if v, ok := r.Read(Free); !ok || v != "b" {
		t.Fatalf("got (%q, %v) after overwrite", v, ok)
	}
}

// TestRegisterOpsCount: each operation charges one step and moves its
// own class counter once.
func TestRegisterOpsCount(t *testing.T) {
	metrics.SetDefault(metrics.New())
	defer metrics.SetDefault(nil)

	ctx := &countingCtx{}
	r := NewRegister[int]()
	reads, writes := mRegRead.Value(), mRegWrite.Value()
	for i := 0; i < 5; i++ {
		r.Write(ctx, i)
	}
	for i := 0; i < 3; i++ {
		r.Read(ctx)
	}
	if ctx.steps != 8 {
		t.Fatalf("charged %d steps, want 8", ctx.steps)
	}
	if d := mRegWrite.Value() - writes; d != 5 {
		t.Fatalf("write delta = %d, want 5", d)
	}
	if d := mRegRead.Value() - reads; d != 3 {
		t.Fatalf("read delta = %d, want 3", d)
	}
}

func TestRegisterConcurrentAccess(t *testing.T) {
	// Race-detector exercise: many writers and readers on one register.
	r := NewRegister[int]()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Write(Free, w*1000+i)
			}
		}()
	}
	for rd := 0; rd < 8; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if v, ok := r.Read(Free); ok && v < 0 {
					t.Errorf("impossible value %d", v)
				}
			}
		}()
	}
	wg.Wait()
}

func TestCompareEmptyAndWrite(t *testing.T) {
	r := NewRegister[int]()
	if v, won := r.CompareEmptyAndWrite(Free, 10); !won || v != 10 {
		t.Fatalf("first CEW got (%d, %v)", v, won)
	}
	if v, won := r.CompareEmptyAndWrite(Free, 20); won || v != 10 {
		t.Fatalf("second CEW got (%d, %v)", v, won)
	}
}

func TestCompareEmptyAndWriteSingleWinner(t *testing.T) {
	r := NewRegister[int]()
	var wg sync.WaitGroup
	winners := make([]bool, 16)
	for i := range winners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, winners[i] = r.CompareEmptyAndWrite(Free, i)
		}()
	}
	wg.Wait()
	count := 0
	for _, w := range winners {
		if w {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d winners, want exactly 1", count)
	}
}

func TestRegisterArray(t *testing.T) {
	a := NewRegisterArray[int](4)
	if a.Len() != 4 {
		t.Fatalf("Len = %d", a.Len())
	}
	ctx := &countingCtx{}
	for i := 0; i < 4; i++ {
		a.At(i).Write(ctx, i*i)
	}
	for i := 0; i < 4; i++ {
		if v, ok := a.At(i).Read(ctx); !ok || v != i*i {
			t.Fatalf("At(%d) = (%d, %v)", i, v, ok)
		}
	}
	if ctx.steps != 8 {
		t.Fatalf("array operations charged %d steps, want 8", ctx.steps)
	}
}

func TestRegisterLastWriteWinsProperty(t *testing.T) {
	// Sequential property: after any sequence of writes, a read returns
	// the last written value.
	if err := quick.Check(func(writes []int) bool {
		r := NewRegister[int]()
		for _, w := range writes {
			r.Write(Free, w)
		}
		v, ok := r.Read(Free)
		if len(writes) == 0 {
			return !ok
		}
		return ok && v == writes[len(writes)-1]
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCompareEmptyAndWriteCounters pins the metric attribution of both
// CompareEmptyAndWrite paths: installing a value counts as a write, and
// the no-install path — which only observes state — counts as a read.
func TestCompareEmptyAndWriteCounters(t *testing.T) {
	metrics.SetDefault(metrics.New())
	defer metrics.SetDefault(nil)

	for _, tc := range []struct {
		name      string
		exclusive bool
	}{
		{"lock-free", false},
		{"exclusive", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegister[int]()
			ctx := &countingCtx{exclusive: tc.exclusive}

			reads, writes := mRegRead.Value(), mRegWrite.Value()
			if v, ok := r.CompareEmptyAndWrite(ctx, 7); !ok || v != 7 {
				t.Fatalf("install path = (%d, %v), want (7, true)", v, ok)
			}
			if d := mRegWrite.Value() - writes; d != 1 {
				t.Fatalf("install path write delta = %d, want 1", d)
			}
			if d := mRegRead.Value() - reads; d != 0 {
				t.Fatalf("install path read delta = %d, want 0", d)
			}

			reads, writes = mRegRead.Value(), mRegWrite.Value()
			if v, ok := r.CompareEmptyAndWrite(ctx, 9); ok || v != 7 {
				t.Fatalf("no-install path = (%d, %v), want (7, false)", v, ok)
			}
			if d := mRegWrite.Value() - writes; d != 0 {
				t.Fatalf("no-install path write delta = %d, want 0", d)
			}
			if d := mRegRead.Value() - reads; d != 1 {
				t.Fatalf("no-install path read delta = %d, want 1", d)
			}

			if ctx.steps != 2 {
				t.Fatalf("charged %d steps, want 2", ctx.steps)
			}
		})
	}
}

// TestRegisterReset: in every representation, a reset register reads as
// never written, and it keeps working —
// under its original representation — afterwards.
func TestRegisterReset(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  Context
		rep  int32
	}{
		{"exclusive", FreeExclusive, repDirect},
		{"lock-free", Free, repLockFree},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arr := NewRegisterArray[string](3)
			for i := 0; i < arr.Len(); i++ {
				arr.At(i).Write(tc.ctx, "old")
			}
			arr.Reset()
			for i := 0; i < arr.Len(); i++ {
				if v, ok := arr.At(i).Read(tc.ctx); ok {
					t.Fatalf("register %d reads %q after Reset, want empty", i, v)
				}
			}
			r := arr.At(0)
			if got := r.rep.m.Load(); got != tc.rep {
				t.Fatalf("Reset changed the representation latch to %d, want %d", got, tc.rep)
			}
			r.Write(tc.ctx, "new")
			if v, ok := r.Read(tc.ctx); !ok || v != "new" {
				t.Fatalf("reset register reads %q, %v after a write, want \"new\"", v, ok)
			}
		})
	}
}
