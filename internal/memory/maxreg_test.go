package memory

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func TestMaxRegisterEmpty(t *testing.T) {
	m := NewMaxRegister[string]()
	if _, _, ok := m.ReadMax(Free); ok {
		t.Fatal("empty max register reported a value")
	}
}

func TestMaxRegisterKeepsMax(t *testing.T) {
	m := NewMaxRegister[string]()
	m.WriteMax(Free, 5, "five")
	m.WriteMax(Free, 3, "three")
	if k, v, ok := m.ReadMax(Free); !ok || k != 5 || v != "five" {
		t.Fatalf("got (%d, %q, %v)", k, v, ok)
	}
	m.WriteMax(Free, 9, "nine")
	if k, v, ok := m.ReadMax(Free); !ok || k != 9 || v != "nine" {
		t.Fatalf("got (%d, %q, %v)", k, v, ok)
	}
}

// TestMaxRegisterOps: each operation charges one step and moves its own
// class counter once (unit-cost model).
func TestMaxRegisterOps(t *testing.T) {
	metrics.SetDefault(metrics.New())
	defer metrics.SetDefault(nil)

	ctx := &countingCtx{}
	m := NewMaxRegister[int]()
	reads, writes := mMaxRead.Value(), mMaxWrite.Value()
	m.WriteMax(ctx, 1, 1)
	m.ReadMax(ctx)
	if ctx.steps != 2 {
		t.Fatalf("charged %d steps, want 2", ctx.steps)
	}
	if dw, dr := mMaxWrite.Value()-writes, mMaxRead.Value()-reads; dw != 1 || dr != 1 {
		t.Fatalf("write, read deltas = %d, %d, want 1, 1", dw, dr)
	}
}

func TestTreeMaxRegisterBitsValidation(t *testing.T) {
	for _, bits := range []int{0, -1, 64, 100} {
		bits := bits
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bits=%d: expected panic", bits)
				}
			}()
			NewTreeMaxRegister[int](bits)
		}()
	}
}

func TestTreeMaxRegisterKeyRange(t *testing.T) {
	m := NewTreeMaxRegister[int](4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range key")
		}
	}()
	m.WriteMax(Free, 16, 0)
}

func TestTreeMaxRegisterEmpty(t *testing.T) {
	m := NewTreeMaxRegister[int](8)
	if _, _, ok := m.ReadMax(Free); ok {
		t.Fatal("empty tree max register reported a value")
	}
}

func TestTreeMaxRegisterMatchesReference(t *testing.T) {
	// Sequential cross-check against the unit-cost register on random
	// operation sequences.
	rng := xrand.New(41)
	if err := quick.Check(func(seedRaw uint32) bool {
		tree := NewTreeMaxRegister[uint64](10)
		ref := NewMaxRegister[uint64]()
		local := xrand.New(uint64(seedRaw))
		for op := 0; op < 50; op++ {
			if local.Bool() {
				k := local.Uint64n(1 << 10)
				tree.WriteMax(Free, k, k)
				ref.WriteMax(Free, k, k)
				continue
			}
			tk, tv, tok := tree.ReadMax(Free)
			rk, rv, rok := ref.ReadMax(Free)
			if tok != rok || tk != rk || tv != rv {
				return false
			}
		}
		_ = rng
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeMaxRegisterMonotoneUnderConcurrency(t *testing.T) {
	// Reads must be monotone non-decreasing for a single reader, and any
	// read must return a key that was actually written.
	const bits = 12
	m := NewTreeMaxRegister[uint64](bits)
	written := make(map[uint64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xrand.New(uint64(100 + w))
			for i := 0; i < 200; i++ {
				k := rng.Uint64n(1 << bits)
				mu.Lock()
				written[k] = true
				mu.Unlock()
				m.WriteMax(Free, k, k)
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev uint64
			for i := 0; i < 200; i++ {
				k, v, ok := m.ReadMax(Free)
				if !ok {
					continue
				}
				if k != v {
					t.Errorf("payload %d does not match key %d", v, k)
					return
				}
				if k < prev {
					t.Errorf("non-monotone reads: %d after %d", k, prev)
					return
				}
				prev = k
			}
		}()
	}
	wg.Wait()
	// Final read must be the overall maximum written.
	k, _, ok := m.ReadMax(Free)
	if !ok {
		t.Fatal("no value after writes")
	}
	var max uint64
	for w := range written {
		if w > max {
			max = w
		}
	}
	if k != max {
		t.Fatalf("final max %d, want %d", k, max)
	}
}

func TestTreeMaxRegisterCostGrowsWithBits(t *testing.T) {
	// A write touches O(bits) registers; verify cost ordering between a
	// shallow and a deep tree using a counting context.
	shallow := NewTreeMaxRegister[int](2)
	deep := NewTreeMaxRegister[int](16)
	cs := &countingCtx{}
	cd := &countingCtx{}
	shallow.WriteMax(cs, 3, 0)
	deep.WriteMax(cd, (1<<16)-1, 0)
	if cd.steps <= cs.steps {
		t.Fatalf("deep write cost %d not greater than shallow cost %d", cd.steps, cs.steps)
	}
}

// countingCtx is a Context that counts the steps charged through it.
type countingCtx struct {
	steps     int
	exclusive bool
}

func (c *countingCtx) Step() { c.steps++ }

func (c *countingCtx) Exclusive() bool { return c.exclusive }
