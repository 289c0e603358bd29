package fault

import (
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/memory"
)

func violationMonitors(vs []Violation) map[string]int {
	m := make(map[string]int)
	for _, v := range vs {
		m[v.Monitor]++
	}
	return m
}

func TestMonitorCleanRun(t *testing.T) {
	mon := NewMonitor()
	// Two phases of a well-behaved adopt-commit: phase 0 mixed proposals
	// (adopt is fine), phase 1 unanimous commit.
	mon.ObserveAC(0, 0, 1, 1, false)
	mon.ObserveAC(0, 1, 2, 1, false)
	mon.ObserveAC(1, 0, 1, 1, true)
	mon.ObserveAC(1, 1, 1, 1, true)
	mon.CheckOutcome([]int{1, 2}, []int{1, 1}, []bool{true, true})
	if vs := mon.Finish(); len(vs) != 0 {
		t.Errorf("clean run produced violations: %v", vs)
	}
}

func TestMonitorAgreementAndValidity(t *testing.T) {
	mon := NewMonitor()
	// Process 2 never finished: its slot must be ignored.
	mon.CheckOutcome([]int{5, 6, 7}, []int{5, 6, 0}, []bool{true, true, false})
	got := violationMonitors(mon.Violations())
	if got["agreement"] == 0 {
		t.Errorf("disagreement not reported: %v", mon.Violations())
	}

	mon = NewMonitor()
	mon.CheckOutcome([]int{5, 6}, []int{9, 9}, []bool{true, true})
	got = violationMonitors(mon.Violations())
	if got["validity"] == 0 {
		t.Errorf("invalid decision not reported: %v", mon.Violations())
	}
	if got["agreement"] != 0 {
		t.Errorf("unanimous invalid decision misreported as disagreement: %v", mon.Violations())
	}
}

func TestMonitorACCoherence(t *testing.T) {
	// A phase with a commit of 1 and a return of 2 violates coherence.
	mon := NewMonitor()
	mon.ObserveAC(0, 0, 1, 1, true)
	mon.ObserveAC(0, 1, 2, 2, false)
	got := violationMonitors(mon.Finish())
	if got["ac-coherence"] == 0 {
		t.Errorf("coherence breach not reported: %v", mon.Violations())
	}

	// Two different committed values in one phase.
	mon = NewMonitor()
	mon.ObserveAC(3, 0, 1, 1, true)
	mon.ObserveAC(3, 1, 2, 2, true)
	got = violationMonitors(mon.Finish())
	if got["ac-coherence"] == 0 {
		t.Errorf("split commit not reported: %v", mon.Violations())
	}
}

func TestMonitorACValidityAndConvergence(t *testing.T) {
	mon := NewMonitor()
	mon.ObserveAC(0, 0, 1, 9, false) // 9 was never proposed
	got := violationMonitors(mon.Finish())
	if got["ac-validity"] == 0 {
		t.Errorf("ac validity breach not reported: %v", mon.Violations())
	}

	mon = NewMonitor()
	mon.ObserveAC(0, 0, 4, 4, false) // unanimous proposals must commit
	mon.ObserveAC(0, 1, 4, 4, true)
	got = violationMonitors(mon.Finish())
	if got["ac-convergence"] == 0 {
		t.Errorf("convergence breach not reported: %v", mon.Violations())
	}
}

// A Propose that started but never completed (crash-recovery amnesia)
// may have planted its value in shared state, so it legitimizes both
// conflicts (no convergence obligation) and returning that value (no
// validity breach). See the Observation doc in adoptcommit/checked.go.
func TestMonitorAbortedProposalCountsAsProposed(t *testing.T) {
	mon := NewMonitor()
	mon.ObserveACPropose(0, 2, 7) // aborted: conflicting value 7 started
	mon.ObserveAC(0, 0, 4, 4, false)
	mon.ObserveAC(0, 1, 4, 7, false) // read back the aborted value
	if vs := mon.Finish(); len(vs) != 0 {
		t.Errorf("aborted conflicting proposal must suppress convergence and validity: %v", vs)
	}

	// Control: without the aborted proposal the same completions are a
	// convergence breach and a validity breach.
	mon = NewMonitor()
	mon.ObserveAC(0, 0, 4, 4, false)
	mon.ObserveAC(0, 1, 4, 7, false)
	got := violationMonitors(mon.Finish())
	if got["ac-validity"] == 0 || got["ac-convergence"] == 0 {
		t.Errorf("control run should breach validity and convergence: %v", mon.Violations())
	}
}

// monCtx is a minimal memory.Context carrying a process id, standing in
// for sim.Proc in monitor unit tests.
type monCtx struct{ id int }

func (c monCtx) Step()           {}
func (c monCtx) Exclusive() bool { return true }
func (c monCtx) ID() int         { return c.id }

// liarMaxer forwards to a real max register but returns a doctored stale
// value on one designated read — the minimal faulty implementation the
// monitor must catch.
type liarMaxer struct {
	inner memory.Maxer[int]
	lieOn int
	reads int
}

func (l *liarMaxer) WriteMax(ctx memory.Context, key uint64, payload int) {
	l.inner.WriteMax(ctx, key, payload)
}

func (l *liarMaxer) ReadMax(ctx memory.Context) (uint64, int, bool) {
	k, v, ok := l.inner.ReadMax(ctx)
	if l.reads == l.lieOn {
		l.reads++
		return 1, 1, true // stale: a max register can never run backwards
	}
	l.reads++
	return k, v, ok
}

// TestMonitoredMaxerCatchesStaleRead is the expected-failure test
// guarding against vacuous monitors: a max register that runs backwards
// MUST produce a maxreg-monotonic violation, both from the online floor
// check and from the linearize.Check pass at Finish.
func TestMonitoredMaxerCatchesStaleRead(t *testing.T) {
	mon := NewMonitor()
	m := NewMonitoredMaxer[int](&liarMaxer{inner: memory.NewMaxRegister[int](), lieOn: 1}, mon)
	ctx := monCtx{id: 0}
	m.WriteMax(ctx, 5, 5)
	if k, _, _ := m.ReadMax(ctx); k != 5 { // read 0: truthful
		t.Fatalf("truthful read = %d", k)
	}
	m.WriteMax(ctx, 7, 7)
	m.ReadMax(ctx) // read 1: lies with key 1 < completed write 7
	m.Finish()
	got := violationMonitors(mon.Violations())
	if got["maxreg-monotonic"] == 0 {
		t.Fatalf("backwards max register not reported: %v", mon.Violations())
	}
}

func TestMonitoredMaxerCatchesPerPidRegression(t *testing.T) {
	// The second lie targets the per-process monotone-reads invariant:
	// pid 1 reads 9 then 1, with no intervening completed-write floor at 9
	// for... the floor check also fires; assert at least the violation
	// mentions process 1 going backwards.
	mon := NewMonitor()
	inner := memory.NewMaxRegister[int]()
	m := NewMonitoredMaxer[int](&liarMaxer{inner: inner, lieOn: 1}, mon)
	ctx := monCtx{id: 1}
	m.WriteMax(ctx, 9, 9)
	m.ReadMax(ctx) // truthful: 9
	m.ReadMax(ctx) // lies: 1
	m.Finish()
	vs := mon.Violations()
	if len(vs) == 0 {
		t.Fatal("regressing reads not reported")
	}
	found := false
	for _, v := range vs {
		if v.Monitor == "maxreg-monotonic" && strings.Contains(v.Detail, "process 1") {
			found = true
		}
	}
	if !found {
		t.Errorf("no per-process violation naming process 1: %v", vs)
	}
}

// TestMonitoredMaxerPidsOutOfOrder feeds reads from pids that arrive out
// of order and past the end of the per-pid table: the monotone-reads
// check must still catch exactly the one process that went backwards.
func TestMonitoredMaxerPidsOutOfOrder(t *testing.T) {
	mon := NewMonitor()
	m := NewMonitoredMaxer[int](&liarMaxer{inner: memory.NewMaxRegister[int](), lieOn: 5}, mon)
	m.WriteMax(monCtx{id: 3}, 10, 10)
	for _, pid := range []int{5, 2, 100, 0, 2} { // reads 0-4: truthful
		if k, _, _ := m.ReadMax(monCtx{id: pid}); k != 10 {
			t.Fatalf("truthful read by %d = %d", pid, k)
		}
	}
	m.ReadMax(monCtx{id: 100}) // read 5 lies: key 1 after reading 10
	m.ReadMax(monCtx{id: 7})   // a new pid between known ones: truthful
	var perPid []string
	for _, v := range mon.Violations() {
		if strings.Contains(v.Detail, "after previously reading") {
			perPid = append(perPid, v.Detail)
		}
	}
	if want := "process 100 read max 1 after previously reading 10"; len(perPid) != 1 || perPid[0] != want {
		t.Errorf("per-process violations = %q, want [%q]", perPid, want)
	}
}

// TestMonitoredMaxerHistoryWindow pins Finish's linearizability check to
// histories inside the window: a read of a key nobody wrote, which only
// that check can see, is reported in a history of exactly
// monitorHistoryLimit operations and not in one of one more, whose
// recorder stops at the limit.
func TestMonitoredMaxerHistoryWindow(t *testing.T) {
	for _, ops := range []int{monitorHistoryLimit, monitorHistoryLimit + 1} {
		mon := NewMonitor()
		m := NewMonitoredMaxer[int](&liarMaxer{inner: memory.NewMaxRegister[int](), lieOn: 0}, mon)
		m.ReadMax(monCtx{id: 0}) // lies: key 1, never written
		for i := 1; i < ops; i++ {
			m.ReadMax(monCtx{id: 1})
		}
		if got := m.rec.Len(); got != monitorHistoryLimit {
			t.Errorf("%d ops: recorder holds %d, want %d", ops, got, monitorHistoryLimit)
		}
		m.Finish()
		want := 0
		if ops <= monitorHistoryLimit {
			want = 1
		}
		if got := violationMonitors(mon.Violations())["maxreg-monotonic"]; got != want {
			t.Errorf("%d ops: %d maxreg-monotonic violations, want %d: %v", ops, got, want, mon.Violations())
		}
	}
}

func TestMonitoredMaxerCleanInner(t *testing.T) {
	// An honest max register under concurrent-free use must stay silent.
	mon := NewMonitor()
	m := NewMonitoredMaxer[int](memory.NewMaxRegister[int](), mon)
	for pid := 0; pid < 3; pid++ {
		ctx := monCtx{id: pid}
		for i := 0; i < 5; i++ {
			m.WriteMax(ctx, uint64(10*i+pid), 10*i+pid)
			m.ReadMax(ctx)
		}
	}
	m.Finish()
	if vs := mon.Violations(); len(vs) != 0 {
		t.Errorf("honest max register reported: %v", vs)
	}
}

func TestReproValidateAndRoundTrip(t *testing.T) {
	s := mustSchedule(t, 3, []Event{{Kind: StaleRead, Pid: 0, Op: 1, Arg: 1}})
	r := &Repro[SlotRun]{
		N: 3,
		Run: SlotRun{
			Sched:     "round-robin",
			SchedSeed: 7,
			AlgSeed:   8,
			Workload:  "maxreg-probe",
			Fault:     s,
		},
		Violations: []Violation{{Monitor: "maxreg-monotonic", Detail: "test"}},
	}
	data, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if schema, err := ReproSchema(data); err != nil || schema != SchemaRepro {
		t.Errorf("ReproSchema = %q, %v; want %q", schema, err, SchemaRepro)
	}
	r2, err := DecodeRepro[SlotRun](data)
	if err != nil {
		t.Fatal(err)
	}
	if r2.N != 3 || r2.Run.Fault.Len() != 1 || len(r2.Violations) != 1 {
		t.Errorf("round trip lost fields: %+v", r2)
	}

	bad := *r
	bad.Violations = nil
	if _, err := bad.Encode(); err == nil {
		t.Error("repro without violations accepted")
	}
	bad = *r
	bad.N = 5 // schedule targets 3
	if err := bad.Validate(); err == nil {
		t.Error("repro with process-count mismatch accepted")
	}
	if _, err := DecodeRepro[SlotRun]([]byte(`{"schema":"nope"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	des := strings.Replace(string(data), SchemaRepro, SchemaDESRepro, 1)
	if _, err := DecodeRepro[SlotRun]([]byte(des)); err == nil || !strings.Contains(err.Error(), SchemaDESRepro) {
		t.Errorf("other engine's artifact decoded as slot-clock: %v", err)
	}
}

// TestReproConfirmIsExact: the replay rule accepts only the recorded
// violations, in order — not merely some violation.
func TestReproConfirmIsExact(t *testing.T) {
	a := Violation{Monitor: "agreement", Detail: "x"}
	b := Violation{Monitor: "ac-coherence", Detail: "y"}
	r := &Repro[SlotRun]{Violations: []Violation{a, b}}
	if err := r.Confirm([]Violation{a, b}); err != nil {
		t.Errorf("exact replay rejected: %v", err)
	}
	for _, got := range [][]Violation{nil, {a}, {b, a}, {a, b, b}, {a, {Monitor: "ac-coherence", Detail: "z"}}} {
		if err := r.Confirm(got); err == nil {
			t.Errorf("replay %v accepted against recorded %v", got, r.Violations)
		}
	}
}
