package conciliator_test

import (
	"bytes"
	"testing"

	conciliator "github.com/oblivious-consensus/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/trace"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// FuzzSolveRegister drives full register-model consensus with fuzzed
// process counts, seeds, and input patterns, asserting the absolute
// guarantees (termination within the slot budget, validity, agreement)
// on every execution.
func FuzzSolveRegister(f *testing.F) {
	f.Add(uint8(4), uint64(1), uint64(2), uint16(0b1010))
	f.Add(uint8(9), uint64(42), uint64(7), uint16(0xffff))
	f.Add(uint8(1), uint64(0), uint64(0), uint16(1))
	f.Add(uint8(16), uint64(1<<63), uint64(3), uint16(0))
	f.Add(uint8(15), uint64(12345), uint64(54321), uint16(0b0101010101010101))
	f.Fuzz(func(t *testing.T, rawN uint8, algSeed, schedSeed uint64, pattern uint16) {
		n := int(rawN%16) + 1
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = int(pattern>>uint(i%16)) & 1
		}
		res, err := conciliator.Solve(conciliator.ModelRegister, inputs,
			conciliator.WithAlgorithmSeed(algSeed),
			conciliator.WithAdversarySeed(schedSeed))
		if err != nil {
			t.Fatalf("solve failed: %v", err)
		}
		if res.Decided != 0 && res.Decided != 1 {
			t.Fatalf("validity violated: decided %d", res.Decided)
		}
		for i, v := range res.Values {
			if res.Finished[i] && v != res.Decided {
				t.Fatalf("agreement violated: process %d decided %d vs %d", i, v, res.Decided)
			}
		}
	})
}

// FuzzScheduleSkipper checks the sched.Skipper contract on every source
// that implements it — RoundRobin, Explicit and trace.ReplaySource:
// interleaving SkipWhile with Next, in any pattern a fuzzed byte program
// can express, must never change the emitted pid stream relative to a
// twin source driven by Next alone, and the count SkipWhile returns must
// exactly match the number of slots its predicate approved. For the
// crash-aware ReplaySource, the predicate must also see Alive exactly as
// a draw-then-check Next sequence would, and a rejected slot must leave
// the crash clock where it was. This is the contract the simulator's
// no-op skip leans on.
func FuzzScheduleSkipper(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint64(1), []byte{0x00, 0x07, 0x12, 0x01})
	f.Add(uint8(1), uint8(8), uint64(9), []byte{0xff, 0x00, 0xff, 0x00, 0x3c})
	f.Add(uint8(2), uint8(1), uint64(42), []byte{0x81, 0x81, 0x81})
	f.Add(uint8(2), uint8(15), uint64(7), []byte{0x10, 0x21, 0x30, 0x41, 0x50, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, rawKind, rawN uint8, seed uint64, program []byte) {
		n := int(rawN%16) + 1
		if len(program) > 256 {
			program = program[:256]
		}
		// Finite sources get a seeded slot list that the program can run
		// off the end of, and ReplaySource seeded death slots.
		rng := xrand.New(seed)
		slots := make([]int, rng.Intn(300))
		for i := range slots {
			slots[i] = rng.Intn(n)
		}
		deadAt := make([]int, n)
		for pid := range deadAt {
			deadAt[pid] = rng.Intn(len(slots)+2) - 1
		}
		var mk func() sched.Source
		switch rawKind % 3 {
		case 0:
			mk = func() sched.Source { return sched.NewRoundRobin(n) }
		case 1:
			mk = func() sched.Source { return sched.NewExplicit(n, slots) }
		default:
			mk = func() sched.Source {
				src, err := trace.NewReplay(n, slots, deadAt)
				if err != nil {
					t.Fatal(err)
				}
				return src
			}
		}
		skipping, reference := mk(), mk()
		skipper := skipping.(sched.Skipper)
		ca, _ := skipping.(sched.CrashAware)
		refCA, _ := reference.(sched.CrashAware)
		sameClock := func(pc int) {
			if ca == nil {
				return
			}
			for pid := 0; pid < n; pid++ {
				if ca.Alive(pid) != refCA.Alive(pid) {
					t.Fatalf("op %d: Alive(%d) = %v, reference %v", pc, pid, ca.Alive(pid), refCA.Alive(pid))
				}
			}
		}
		for pc, op := range program {
			if op&1 == 0 {
				got, want := skipping.Next(), reference.Next()
				if got != want {
					t.Fatalf("op %d: Next = %d, reference = %d", pc, got, want)
				}
				sameClock(pc)
				continue
			}
			budget := int(op>>1) % 8
			type seen struct {
				pid   int
				alive bool
			}
			var approved []seen
			skipped := skipper.SkipWhile(func(pid int) bool {
				if budget == 0 {
					return false
				}
				budget--
				approved = append(approved, seen{pid, ca == nil || ca.Alive(pid)})
				return true
			})
			if skipped != int64(len(approved)) {
				t.Fatalf("op %d: SkipWhile = %d slots, predicate approved %d", pc, skipped, len(approved))
			}
			for i, s := range approved {
				if want := reference.Next(); s.pid != want {
					t.Fatalf("op %d: skipped slot %d = pid %d, reference = %d", pc, i, s.pid, want)
				}
				if refCA != nil && s.alive != refCA.Alive(s.pid) {
					t.Fatalf("op %d: skipped slot %d saw Alive(%d) = %v, reference after Next %v", pc, i, s.pid, s.alive, refCA.Alive(s.pid))
				}
			}
			sameClock(pc)
		}
	})
}

// FuzzCrashScheduleReplay records fuzzed crash-schedule runs with
// trace.Record and replays them, asserting the replay reproduces the
// original execution exactly — per-process step counts, finished flags,
// and slot totals. This pins the crash-replay semantics (death slots
// captured at slot granularity, crash-aware replay sources) under
// schedules no hand-written table would think to try.
func FuzzCrashScheduleReplay(f *testing.F) {
	f.Add(uint8(4), uint64(1), uint8(10), uint8(0b0101))
	f.Add(uint8(7), uint64(33), uint8(0), uint8(0xff))
	f.Add(uint8(2), uint64(5), uint8(60), uint8(0b10))
	// Regression: every survivor finished before the crash cutoff passed,
	// which used to make the driver spin through no-op slots to the slot
	// budget (and blow Result.Slots up to the budget) instead of ending
	// the run at the cutoff crossing.
	f.Add(uint8(97), uint64(7), uint8(0x16), uint8(0xe3))
	f.Fuzz(func(t *testing.T, rawN uint8, seed uint64, rawCutoff, victimMask uint8) {
		n := int(rawN%8) + 2
		cutoff := int(rawCutoff) % 64
		// CrashSet requires a survivor; process n-1 is never a victim.
		var victims []int
		for pid := 0; pid < n-1; pid++ {
			if victimMask&(1<<uint(pid%8)) != 0 {
				victims = append(victims, pid)
			}
		}
		body := func(p *sim.Proc) int64 {
			for i := 0; i < 8; i++ {
				p.Step()
			}
			return p.Steps()
		}
		rec := trace.Record(sched.NewCrashSet(sched.NewRandom(n, xrand.New(seed)), victims, cutoff, seed+1))
		_, _, res, err := sim.Collect(rec, sim.Config{AlgSeed: seed + 2}, body)
		if err != nil {
			t.Fatalf("recorded run: %v", err)
		}
		_, _, replayed, err := sim.Collect(rec.Replay(), sim.Config{AlgSeed: seed + 2}, body)
		if err != nil {
			t.Fatalf("replayed run: %v", err)
		}
		if res.TotalSteps != replayed.TotalSteps || res.Slots != replayed.Slots {
			t.Fatalf("steps/slots: recorded %d/%d, replayed %d/%d", res.TotalSteps, res.Slots, replayed.TotalSteps, replayed.Slots)
		}
		for pid := range res.Steps {
			if res.Steps[pid] != replayed.Steps[pid] {
				t.Fatalf("process %d steps: recorded %d, replayed %d", pid, res.Steps[pid], replayed.Steps[pid])
			}
			if res.Finished[pid] != replayed.Finished[pid] {
				t.Fatalf("process %d finished: recorded %v, replayed %v", pid, res.Finished[pid], replayed.Finished[pid])
			}
		}
	})
}

// FuzzConciliatorLinear fuzzes the Algorithm 3 conciliator alone:
// termination and validity must hold for every seed pair, even though
// agreement is only probabilistic.
func FuzzConciliatorLinear(f *testing.F) {
	f.Add(uint8(6), uint64(3), uint64(4))
	f.Add(uint8(2), uint64(9), uint64(1))
	f.Add(uint8(0), uint64(0), uint64(0))
	f.Add(uint8(13), uint64(1<<40), uint64(17))
	f.Fuzz(func(t *testing.T, rawN uint8, algSeed, schedSeed uint64) {
		n := int(rawN%16) + 1
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = i * 10
		}
		res, err := conciliator.RunConciliator(conciliator.ModelLinear, inputs,
			conciliator.WithAlgorithmSeed(algSeed),
			conciliator.WithAdversarySeed(schedSeed))
		if err != nil {
			t.Fatalf("conciliator failed: %v", err)
		}
		for i, v := range res.Values {
			if !res.Finished[i] {
				t.Fatalf("process %d did not terminate", i)
			}
			if v%10 != 0 || v < 0 || v >= n*10 {
				t.Fatalf("validity violated: output %d", v)
			}
		}
	})
}

// FuzzFaultScheduleReplay mirrors FuzzCrashScheduleReplay for the fault
// substrate: arbitrary fault schedules — decoded from fuzzed bytes into
// every event kind — must (a) round-trip through the JSON codec
// byte-identically, (b) drive the simulator without panicking, and
// (c) replay bit-identically, both from the in-memory schedule and from
// its decoded serialization. This pins the determinism contract repro
// artifacts depend on: a faulted run is a pure function of (algorithm
// seed, schedule source, fault schedule).
func FuzzFaultScheduleReplay(f *testing.F) {
	f.Add(uint8(4), uint64(1), uint64(2), []byte{0, 0, 3, 0, 2})
	f.Add(uint8(7), uint64(9), uint64(5), []byte{2, 1, 10, 0, 0, 3, 2, 1, 0, 4})
	f.Add(uint8(2), uint64(3), uint64(8), []byte{4, 0, 2, 0, 3, 1, 1, 50, 0, 7})
	f.Add(uint8(1), uint64(0), uint64(0), []byte{2, 0, 0, 0, 0, 2, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, rawN uint8, algSeed, schedSeed uint64, raw []byte) {
		n := int(rawN%8) + 1
		var events []fault.Event
		for i := 0; i+4 < len(raw) && len(events) < 24; i += 5 {
			kind := fault.Kind(int(raw[i])%5 + 1)
			ev := fault.Event{Kind: kind, Pid: int(raw[i+1]) % n}
			clock := int64(raw[i+2]) | int64(raw[i+3])<<8
			arg := int64(raw[i+4]%8) + 1
			switch kind {
			case fault.Stutter, fault.Stall:
				ev.Slot, ev.Arg = clock, arg
			case fault.CrashRecover:
				ev.Slot = clock
			case fault.StaleRead:
				ev.Op, ev.Arg = clock%64, arg-1 // depth 0 = null read
			case fault.StaleScan:
				ev.Op, ev.Arg = clock%64, arg
			}
			events = append(events, ev)
		}
		s, err := fault.NewSchedule(n, events)
		if err != nil {
			t.Fatalf("constructed events rejected: %v", err)
		}

		d1, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := fault.Decode(d1)
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		d2, err := decoded.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d1, d2) {
			t.Fatalf("codec round trip not byte-identical:\n%s\nvs\n%s", d1, d2)
		}

		// The workload touches every faultable operation class: register
		// read/write, snapshot update/scan, max-register read/write.
		run := func(fs *fault.Schedule) sim.Result {
			reg := memory.NewRegister[int]()
			snap := memory.NewSnapshot[int](n)
			maxr := memory.NewMaxRegister[int]()
			src := sched.New(sched.KindRandom, n, schedSeed)
			res, err := sim.RunControlled(src, func(p *sim.Proc) {
				buf := make([]memory.Entry[int], n)
				for i := 0; i < 6; i++ {
					reg.Write(p, p.ID()*100+i)
					reg.Read(p)
					snap.Update(p, p.ID(), i)
					snap.ScanInto(p, buf)
					maxr.WriteMax(p, uint64(i*n+p.ID()+1), i)
					maxr.ReadMax(p)
				}
			}, sim.Config{AlgSeed: algSeed, MaxSlots: 1 << 21, Faults: fs})
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			return res
		}
		first := run(s)
		for name, again := range map[string]sim.Result{
			"replay":         run(s),
			"decoded replay": run(decoded),
		} {
			if first.TotalSteps != again.TotalSteps || first.Slots != again.Slots {
				t.Fatalf("%s diverged: steps %d/%d, slots %d/%d", name,
					first.TotalSteps, again.TotalSteps, first.Slots, again.Slots)
			}
			if first.Restarts != again.Restarts || first.Faults != again.Faults {
				t.Fatalf("%s fault delivery diverged: restarts %d/%d, counts %+v vs %+v", name,
					first.Restarts, again.Restarts, first.Faults, again.Faults)
			}
			for pid := range first.Steps {
				if first.Steps[pid] != again.Steps[pid] || first.Finished[pid] != again.Finished[pid] {
					t.Fatalf("%s process %d diverged: steps %d/%d finished %v/%v", name, pid,
						first.Steps[pid], again.Steps[pid], first.Finished[pid], again.Finished[pid])
				}
			}
		}
	})
}
