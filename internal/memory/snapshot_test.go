package memory

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
)

func TestSnapshotEmptyScan(t *testing.T) {
	s := NewSnapshot[int](3)
	if s.Components() != 3 {
		t.Fatalf("Components = %d", s.Components())
	}
	for i, e := range s.Scan(Free) {
		if e.OK {
			t.Fatalf("component %d non-null before any update", i)
		}
	}
}

func TestSnapshotUpdateScan(t *testing.T) {
	s := NewSnapshot[string](3)
	s.Update(Free, 1, "mid")
	view := s.Scan(Free)
	if view[0].OK || view[2].OK {
		t.Fatal("unexpected non-null components")
	}
	if !view[1].OK || view[1].Value != "mid" {
		t.Fatalf("component 1 = %+v", view[1])
	}
}

func TestSnapshotScanIsCopy(t *testing.T) {
	s := NewSnapshot[int](2)
	s.Update(Free, 0, 1)
	view := s.Scan(Free)
	view[0].Value = 99
	if again := s.Scan(Free); again[0].Value != 1 {
		t.Fatal("mutating a returned view affected the object")
	}
}

// TestSnapshotOps: each update and scan charges one step and moves its
// own class counter once (unit-cost model).
func TestSnapshotOps(t *testing.T) {
	metrics.SetDefault(metrics.New())
	defer metrics.SetDefault(nil)

	ctx := &countingCtx{}
	s := NewSnapshot[int](2)
	updates, scans := mSnapUpdate.Value(), mSnapScan.Value()
	s.Update(ctx, 0, 1)
	s.Update(ctx, 1, 2)
	s.Scan(ctx)
	if ctx.steps != 3 {
		t.Fatalf("charged %d steps, want 3 (unit-cost model)", ctx.steps)
	}
	if du, ds := mSnapUpdate.Value()-updates, mSnapScan.Value()-scans; du != 2 || ds != 1 {
		t.Fatalf("update, scan deltas = %d, %d, want 2, 1", du, ds)
	}
}

func TestViewSubset(t *testing.T) {
	mk := func(oks ...bool) []Entry[int] {
		out := make([]Entry[int], len(oks))
		for i, ok := range oks {
			out[i] = Entry[int]{OK: ok}
		}
		return out
	}
	tests := []struct {
		name string
		a, b []Entry[int]
		want bool
	}{
		{name: "empty in empty", a: mk(false, false), b: mk(false, false), want: true},
		{name: "subset", a: mk(true, false), b: mk(true, true), want: true},
		{name: "equal", a: mk(true, true), b: mk(true, true), want: true},
		{name: "not subset", a: mk(true, false), b: mk(false, true), want: false},
		{name: "length mismatch", a: mk(true), b: mk(true, true), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ViewSubset(tt.a, tt.b); got != tt.want {
				t.Errorf("ViewSubset = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSnapshotViewsNestedUnderConcurrency(t *testing.T) {
	// The nesting property from the Lemma 1 proof: all views of one
	// snapshot object are totally ordered by containment. Hammer the
	// object from concurrent updaters and scanners and check the chain.
	const (
		n        = 8
		scans    = 50
		scanners = 4
	)
	s := NewSnapshot[int](n)
	var (
		mu    sync.Mutex
		views [][]Entry[int]
		wg    sync.WaitGroup
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Update(Free, w, w)
		}()
	}
	for sc := 0; sc < scanners; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scans; i++ {
				v := s.Scan(Free)
				mu.Lock()
				views = append(views, v)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if !ViewsNested(views) {
		t.Fatal("snapshot views are not nested")
	}
}

func TestSnapshotSequentialProperty(t *testing.T) {
	// Property: a scan after a set of updates shows exactly the updated
	// components with their most recent values.
	type upd struct {
		I uint8
		V int
	}
	if err := quick.Check(func(updates []upd) bool {
		const n = 8
		s := NewSnapshot[int](n)
		last := make(map[int]int)
		for _, u := range updates {
			i := int(u.I) % n
			s.Update(Free, i, u.V)
			last[i] = u.V
		}
		view := s.Scan(Free)
		for i := 0; i < n; i++ {
			want, ok := last[i]
			if view[i].OK != ok {
				return false
			}
			if ok && view[i].Value != want {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
