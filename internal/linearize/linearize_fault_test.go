package linearize_test

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/linearize"
)

// TestRegisterSemanticsRejectsFaultedHistory is the expected-failure
// guard for the fault sweep's oracles: a history produced by a weakened
// (stale-reading) register must NOT linearize under atomic register
// semantics. If this test ever passes vacuously — the checker accepting
// the history — every monitor built on Check is worthless.
func TestRegisterSemanticsRejectsFaultedHistory(t *testing.T) {
	// Sequential (non-overlapping) ops: write 1, write 2, then a read that
	// returns the overwritten 1 — exactly what a depth-1 stale-read fault
	// produces on a register. Last-write-wins has no linearization.
	faulted := []linearize.Op{
		{Proc: 0, Kind: linearize.Write, Arg: 1, Start: 1, End: 2},
		{Proc: 1, Kind: linearize.Write, Arg: 2, Start: 3, End: 4},
		{Proc: 2, Kind: linearize.Read, Out: 1, OutOK: true, Start: 5, End: 6},
	}
	ok, err := linearize.Check(linearize.RegisterSemantics{}, faulted)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("stale read linearized under atomic register semantics: the monitor oracle is vacuous")
	}

	// Control: the honest history (read returns 2) must linearize, so the
	// rejection above is discriminating, not blanket.
	honest := append([]linearize.Op(nil), faulted...)
	honest[2].Out = 2
	ok, err = linearize.Check(linearize.RegisterSemantics{}, honest)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("honest history rejected")
	}
}

// TestRegisterSemanticsNullReadRejected: a null read (OutOK=false) after
// a completed write is the safe-register fault mode with depth 0; atomic
// semantics must reject it too.
func TestRegisterSemanticsNullReadRejected(t *testing.T) {
	history := []linearize.Op{
		{Proc: 0, Kind: linearize.Write, Arg: 7, Start: 1, End: 2},
		{Proc: 1, Kind: linearize.Read, OutOK: false, Start: 3, End: 4},
	}
	ok, err := linearize.Check(linearize.RegisterSemantics{}, history)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("null read after completed write linearized")
	}
}

// TestMaxRegisterSemanticsRejectsRegression mirrors the register case
// for the max-register monitor: a read below an earlier completed
// write's maximum must not linearize.
func TestMaxRegisterSemanticsRejectsRegression(t *testing.T) {
	history := []linearize.Op{
		{Proc: 0, Kind: linearize.Write, Arg: 5, Start: 1, End: 2},
		{Proc: 0, Kind: linearize.Write, Arg: 9, Start: 3, End: 4},
		{Proc: 1, Kind: linearize.Read, Out: 5, OutOK: true, Start: 5, End: 6},
	}
	ok, err := linearize.Check(linearize.MaxRegisterSemantics{}, history)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("regressed max-register read linearized")
	}
}
