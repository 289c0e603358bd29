package des

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// TestServerApplyZeroAllocs pins the server's per-op path to zero
// allocations for every op kind once the op's pool holds its object.
func TestServerApplyZeroAllocs(t *testing.T) {
	const n = 300
	s := newServer(n)
	ops := []message{
		{op: sim.OpWriteP, val: 7},
		{op: sim.OpReadP},
		{op: sim.OpWriteMax, key: 9, val: 3},
		{op: sim.OpReadMax},
		{op: sim.OpWriteV, val: 1},
		{op: sim.OpReadV},
		{op: opSync},
	}
	for _, m := range ops {
		m.from = n - 1
		s.apply(m) // creates the op's object
		if allocs := testing.AllocsPerRun(1000, func() { s.apply(m) }); allocs != 0 {
			t.Errorf("apply of op %d at pid %d allocates %v times per op, want 0", m.op, m.from, allocs)
		}
	}
}
