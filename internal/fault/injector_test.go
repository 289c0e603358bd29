package fault

import (
	"math"
	"testing"
)

func mustSchedule(t *testing.T, n int, events []Event) *Schedule {
	t.Helper()
	s, err := NewSchedule(n, events)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewInjectorValidates(t *testing.T) {
	s := mustSchedule(t, 4, []Event{{Kind: Stutter, Pid: 3, Slot: 1, Arg: 1}})
	if _, err := NewInjector(s, 4); err != nil {
		t.Fatal(err)
	}
	// A schedule for 4 processes cannot drive a 2-process run: pid 3 has no
	// target.
	if _, err := NewInjector(s, 2); err == nil {
		t.Error("injector accepted process-count mismatch")
	}
}

func TestInjectorStutterAndStall(t *testing.T) {
	s := mustSchedule(t, 2, []Event{
		{Kind: Stutter, Pid: 0, Slot: 2, Arg: 2},
		{Kind: Stall, Pid: 1, Slot: 4, Arg: 3},
	})
	inj, err := NewInjector(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Before the stutter's slot nothing is wasted.
	inj.Advance(1)
	if inj.Wasted(0, 0) || inj.Wasted(1, 0) {
		t.Fatal("fault fired before its slot")
	}
	// From slot 2 the next two of pid 0's slots are wasted, then it runs.
	inj.Advance(2)
	if !inj.Wasted(0, 1) || !inj.Wasted(0, 2) {
		t.Fatal("stutter did not waste 2 slots")
	}
	if inj.Wasted(0, 3) {
		t.Fatal("stutter overshot its length")
	}
	// The stall starves pid 1 for slots in [4, 4+3) by the slot clock and
	// does not decrement with use.
	inj.Advance(4)
	for slot := int64(4); slot < 7; slot++ {
		if !inj.Wasted(1, slot) {
			t.Fatalf("stall did not waste slot %d", slot)
		}
	}
	if inj.Wasted(1, 7) {
		t.Fatal("stall outlived its window")
	}
	c := inj.Counts()
	if c.StutterSlots != 2 || c.StallSlots != 3 {
		t.Errorf("counts = %+v", c)
	}
}

func TestInjectorRestartQueue(t *testing.T) {
	s := mustSchedule(t, 3, []Event{
		{Kind: CrashRecover, Pid: 2, Slot: 5},
		{Kind: CrashRecover, Pid: 0, Slot: 5},
		{Kind: CrashRecover, Pid: 1, Slot: 9},
	})
	inj, err := NewInjector(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := inj.TakeRestart(); ok {
		t.Fatal("restart before its slot")
	}
	if got := inj.NextSlot(); got != 5 {
		t.Fatalf("NextSlot before delivery = %d, want 5", got)
	}
	if got := inj.Advance(5); len(got) != 2 || got[0].Pid != 0 || got[1].Pid != 2 {
		t.Fatalf("Advance(5) delivered %+v, want the slot-5 restarts of pids 0 and 2", got)
	}
	if got := inj.NextSlot(); got != 9 {
		t.Fatalf("NextSlot after slot 5 = %d, want 9", got)
	}
	// Normalized order: same slot sorts by pid.
	if pid, ok := inj.TakeRestart(); !ok || pid != 0 {
		t.Fatalf("first restart = %d, %v", pid, ok)
	}
	if pid, ok := inj.TakeRestart(); !ok || pid != 2 {
		t.Fatalf("second restart = %d, %v", pid, ok)
	}
	if _, ok := inj.TakeRestart(); ok {
		t.Fatal("spurious third restart")
	}
	inj.Advance(20) // delivery is catch-up, not exact-match
	if got := inj.NextSlot(); got != math.MaxInt64 {
		t.Fatalf("NextSlot with nothing left = %d, want math.MaxInt64", got)
	}
	if pid, ok := inj.TakeRestart(); !ok || pid != 1 {
		t.Fatalf("late restart = %d, %v", pid, ok)
	}
	if got := inj.Counts().Restarts; got != 3 {
		t.Errorf("restart count = %d", got)
	}
}

func TestInjectorStaleRead(t *testing.T) {
	s := mustSchedule(t, 2, []Event{
		{Kind: StaleRead, Pid: 0, Op: 2, Arg: 1}, // depth 1: previous value
		{Kind: StaleRead, Pid: 0, Op: 3, Arg: 0}, // depth 0: null read
		{Kind: StaleRead, Pid: 1, Op: 0, Arg: 5}, // deeper than history: null
	})
	inj, err := NewInjector(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	key := "reg"
	inj.OnWrite(key, 10)
	inj.OnWrite(key, 20)

	// Ops 0 and 1 of pid 0 are clean.
	for op := 0; op < 2; op++ {
		if _, hit := inj.ReadFault(0, key); hit {
			t.Fatalf("op %d faulted early", op)
		}
	}
	// Op 2 returns the previous value.
	if v, hit := inj.ReadFault(0, key); !hit || v.(int) != 10 {
		t.Fatalf("op 2 = %v, %v; want 10, true", v, hit)
	}
	// Op 3 is the null read.
	if v, hit := inj.ReadFault(0, key); !hit || v != nil {
		t.Fatalf("op 3 = %v, %v; want nil, true", v, hit)
	}
	// Depth beyond recorded history degrades to the null read (legal for a
	// safe register).
	if v, hit := inj.ReadFault(1, key); !hit || v != nil {
		t.Fatalf("deep read = %v, %v; want nil, true", v, hit)
	}
	// Per-process op counters are independent: pid 1's counter is past its
	// event, pid 0 has no more events.
	if _, hit := inj.ReadFault(0, key); hit {
		t.Fatal("pid 0 faulted past its events")
	}
	c := inj.Counts()
	if c.StaleReads != 3 {
		t.Errorf("stale read count = %d", c.StaleReads)
	}
}

func TestInjectorScanDepthAndStaleAt(t *testing.T) {
	s := mustSchedule(t, 1, []Event{
		{Kind: StaleScan, Pid: 0, Op: 1, Arg: 2},
	})
	inj, err := NewInjector(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	obj := "snap"
	type comp struct{ i int }
	k0 := comp{0}
	inj.OnWrite(k0, "a")
	inj.OnWrite(k0, "b")
	inj.OnWrite(k0, "c")

	if d := inj.ScanDepth(0, obj); d != 0 {
		t.Fatalf("scan op 0 depth = %d", d)
	}
	if d := inj.ScanDepth(0, obj); d != 2 {
		t.Fatalf("scan op 1 depth = %d", d)
	}
	// StaleAt walks the per-key write history backwards.
	if v, ok := inj.StaleAt(k0, 1); !ok || v.(string) != "b" {
		t.Errorf("StaleAt depth 1 = %v, %v", v, ok)
	}
	if v, ok := inj.StaleAt(k0, 2); !ok || v.(string) != "a" {
		t.Errorf("StaleAt depth 2 = %v, %v", v, ok)
	}
	// A component never written, or depth past its history, reads null.
	if _, ok := inj.StaleAt(comp{9}, 1); ok {
		t.Error("StaleAt on unwritten key hit")
	}
	if _, ok := inj.StaleAt(k0, 3); ok {
		t.Error("StaleAt beyond history hit")
	}
	if c := inj.Counts(); c.StaleScans != 1 {
		t.Errorf("stale scan count = %d", c.StaleScans)
	}
}

func TestRingEviction(t *testing.T) {
	// Values older than the ring capacity are evicted and read as null;
	// values within it are exact.
	var r ring
	for i := 0; i < histCap+10; i++ {
		r.push(i)
	}
	if v, ok := r.staleAt(1); !ok || v.(int) != histCap+8 {
		t.Errorf("staleAt(1) = %v, %v", v, ok)
	}
	if v, ok := r.staleAt(int64(histCap) - 1); !ok || v.(int) != 10 {
		t.Errorf("staleAt(cap-1) = %v, %v", v, ok)
	}
	if _, ok := r.staleAt(int64(histCap)); ok {
		t.Error("staleAt(cap) should be evicted")
	}
	var nilRing *ring
	if _, ok := nilRing.staleAt(1); ok {
		t.Error("nil ring hit")
	}
}
