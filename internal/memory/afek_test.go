package memory

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAfekSequentialSemantics(t *testing.T) {
	s := NewAfekSnapshot[int](3)
	if s.Components() != 3 {
		t.Fatalf("Components = %d", s.Components())
	}
	for i, e := range s.Scan(Free) {
		if e.OK {
			t.Fatalf("component %d non-null before updates", i)
		}
	}
	s.Update(Free, 0, 10)
	s.Update(Free, 2, 30)
	view := s.Scan(Free)
	if !view[0].OK || view[0].Value != 10 {
		t.Fatalf("component 0 = %+v", view[0])
	}
	if view[1].OK {
		t.Fatal("component 1 should be null")
	}
	if !view[2].OK || view[2].Value != 30 {
		t.Fatalf("component 2 = %+v", view[2])
	}
}

func TestAfekOverwrite(t *testing.T) {
	s := NewAfekSnapshot[int](2)
	s.Update(Free, 0, 1)
	s.Update(Free, 0, 2)
	if view := s.Scan(Free); view[0].Value != 2 {
		t.Fatalf("component 0 = %+v after overwrite", view[0])
	}
}

func TestAfekSequentialMatchesUnitCost(t *testing.T) {
	type upd struct {
		I uint8
		V int
	}
	if err := quick.Check(func(updates []upd) bool {
		const n = 5
		afek := NewAfekSnapshot[int](n)
		unit := NewSnapshot[int](n)
		for _, u := range updates {
			i := int(u.I) % n
			afek.Update(Free, i, u.V)
			unit.Update(Free, i, u.V)
		}
		av, uv := afek.Scan(Free), unit.Scan(Free)
		for i := range av {
			if av[i].OK != uv[i].OK || av[i].Value != uv[i].Value {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAfekCostsMoreThanUnit(t *testing.T) {
	const n = 8
	afek := NewAfekSnapshot[int](n)
	unit := NewSnapshot[int](n)
	ca, cu := &countingCtx{}, &countingCtx{}
	afek.Update(ca, 0, 1)
	afek.Scan(ca)
	unit.Update(cu, 0, 1)
	unit.Scan(cu)
	if cu.steps != 2 {
		t.Fatalf("unit-cost snapshot charged %d steps for update+scan, want 2", cu.steps)
	}
	if ca.steps < 2*n {
		t.Fatalf("register-based snapshot charged only %d steps, want at least %d", ca.steps, 2*n)
	}
}

func TestAfekConcurrentScansNested(t *testing.T) {
	// Single-writer-per-component discipline: writer w updates component
	// w. All views collected by concurrent scanners must form a chain.
	const (
		n        = 6
		updates  = 30
		scanners = 4
		scans    = 40
	)
	s := NewAfekSnapshot[int](n)
	var (
		mu    sync.Mutex
		views [][]Entry[int]
		wg    sync.WaitGroup
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= updates; i++ {
				s.Update(Free, w, i)
			}
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
		t.Fatal("concurrent Afek snapshot views are not nested")
	}
	// Values are monotone per component, so nested views must also be
	// value-monotone along the chain for each component.
	for _, v := range views {
		for i := range v {
			if v[i].OK && (v[i].Value < 1 || v[i].Value > updates) {
				t.Fatalf("impossible component value %d", v[i].Value)
			}
		}
	}
}

func TestAfekScanMonotonePerReader(t *testing.T) {
	const n = 4
	s := NewAfekSnapshot[int](n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 50; i++ {
				s.Update(Free, w, i)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := make([]int, n)
		for i := 0; i < 100; i++ {
			v := s.Scan(Free)
			for c := range v {
				if !v[c].OK {
					continue
				}
				if v[c].Value < prev[c] {
					t.Errorf("component %d regressed: %d after %d", c, v[c].Value, prev[c])
					return
				}
				prev[c] = v[c].Value
			}
		}
	}()
	wg.Wait()
}

func TestEntryString(t *testing.T) {
	if got := (Entry[int]{}).String(); got != "⊥" {
		t.Fatalf("null entry String = %q", got)
	}
	if got := (Entry[int]{Value: 7, OK: true}).String(); got != "7" {
		t.Fatalf("entry String = %q", got)
	}
}
