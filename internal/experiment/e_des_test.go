package experiment

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/des"
	"github.com/oblivious-consensus/conciliator/internal/fault"
)

// TestReduceDESCountsErroredTrialOnlyAsRunError pins the cell's one rule
// for errored trials: they count in RunErrors and nowhere else, however
// much work, chaos and damage they report.
func TestReduceDESCountsErroredTrialOnlyAsRunError(t *testing.T) {
	ok := func(steps []int64, vt time.Duration, crashes int64, violations int, decided bool) DESTrial {
		return DESTrial{Result: des.Result{
			Rounds: 7, Phases: 1, Steps: steps, VirtualTime: vt, AllDecided: decided,
			MsgsSent: 10, MsgsDropped: 1, MsgsBlocked: 2, Retransmits: 3, Events: 20,
			Crashes: crashes, Restarts: crashes, Wipes: 1, Resyncs: 1, GaveUp: 1,
			Violations: make([]fault.Violation, violations),
		}}
	}
	wedged := errors.New("wedged")
	bad := ok([]int64{900, 900}, time.Hour, 50, 9, false)
	bad.Phases, bad.Rounds, bad.Err = 40, 99, wedged

	c := reduceDES([]DESTrial{
		ok([]int64{3, 4}, 1500*time.Microsecond+700, 0, 0, true),
		bad,
		ok([]int64{5, 2}, 2*time.Millisecond, 2, 1, true),
	})

	if c.RunErrors != 1 || !errors.Is(c.Err(), wedged) || len(c.Trials) != 3 {
		t.Fatalf("run errors %d, err %v, %d trials; want 1, wedged, 3", c.RunErrors, c.Err(), len(c.Trials))
	}
	want := DESCell{
		Trials: c.Trials, Rounds: 7, MaxPhases: 1, MaxSteps: 5,
		Steps:        []float64{3, 4, 5, 2},
		VirtualTimes: []time.Duration{1500*time.Microsecond + 700, 2 * time.Millisecond},
		MsgsSent:     20, MsgsDropped: 2, MsgsBlocked: 4, Retransmits: 6, Events: 40,
		Crashes: 2, Restarts: 2, Wipes: 2, Resyncs: 2, GaveUp: 2,
		RunErrors: 1, Violations: 1, AllDecided: true,
	}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("cell\n%+v\nwant\n%+v", c, want)
	}
	// E18c reads virtual time in ns, consensusbench -des in whole µs.
	if got := c.VirtualMs(time.Nanosecond); !reflect.DeepEqual(got, []float64{1.5007, 2}) {
		t.Errorf("VirtualMs(ns) = %v", got)
	}
	if got := c.VirtualMs(time.Microsecond); !reflect.DeepEqual(got, []float64{1.5, 2}) {
		t.Errorf("VirtualMs(µs) = %v", got)
	}
}
