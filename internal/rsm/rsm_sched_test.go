package rsm

import (
	"fmt"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// kvPending builds each replica's command stream over a small shared key
// space, so replicas genuinely contend on the same state.
func kvPending(n, slots int, seed uint64) [][]Op {
	rng := xrand.New(seed)
	keys := []string{"x", "y", "z"}
	pending := make([][]Op, n)
	for r := 0; r < n; r++ {
		for s := 0; s < slots; s++ {
			pending[r] = append(pending[r], Op{
				Kind:  OpKind(rng.Intn(3) + 1),
				Key:   keys[rng.Intn(len(keys))],
				Value: fmt.Sprintf("%d", rng.Intn(100)),
			})
		}
	}
	return pending
}

// TestKVConvergenceUnderSkewedSchedules drives the KV state machine under
// heavily skewed oblivious schedules — Zipf, a single favored process,
// and a searched-family Program mixing 16:1 weights with bursts and
// starvation windows. However lopsided the interleaving, every replica
// must decide the identical log and reach the identical state.
func TestKVConvergenceUnderSkewedSchedules(t *testing.T) {
	const (
		n     = 4
		slots = 8
	)
	program := func() sched.Source {
		src, err := sched.NewProgram(n, sched.ProgramSpec{
			Weights: []int64{16, 1, 1, 1},
			Segments: []sched.ProgramSegment{
				{Mode: sched.SegBurst, Len: 24, Pid: 0},
				{Mode: sched.SegStarve, Len: 48, Mask: 0b0001},
				{Mode: sched.SegWeighted, Len: 64},
			},
		}, xrand.New(101))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	sources := []struct {
		name string
		src  sched.Source
	}{
		{"zipf", sched.NewZipf(n, 2.0, xrand.New(43))},
		{"favored", sched.NewFavored(n)},
		{"program", program()},
	}
	for _, tc := range sources {
		t.Run(tc.name, func(t *testing.T) {
			log := NewLog[Op](n, consensus.NewRegister[Op])
			pending := kvPending(n, slots, 47)
			fps := make([]string, n)
			logs := make([][]Op, n)
			_, finished, _, err := sim.Collect(tc.src, sim.Config{AlgSeed: 53}, func(p *sim.Proc) struct{} {
				r := NewReplica(p.ID(), log, NewKV())
				logs[p.ID()] = r.Run(p, 0, pending[p.ID()])
				fps[p.ID()] = r.Fingerprint()
				return struct{}{}
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < n; r++ {
				if !finished[r] {
					t.Fatalf("replica %d unfinished under %s", r, tc.name)
				}
				if fps[r] != fps[0] {
					t.Fatalf("replica %d state %q != replica 0 state %q", r, fps[r], fps[0])
				}
				for s := 0; s < slots; s++ {
					if logs[r][s] != logs[0][s] {
						t.Fatalf("slot %d diverges between replicas under %s", s, tc.name)
					}
				}
			}
		})
	}
}

// TestKVUnderCrashRecoverySchedule replays the KV machine through
// crash-recovery faults: replicas lose all local state mid-run (amnesia)
// and restart from the top, re-proposing the same commands. Agreement
// makes re-proposal idempotent — a restarted replica's Propose on an
// already-decided slot returns the decided command — so every finished
// incarnation must still converge to the identical log and state.
func TestKVUnderCrashRecoverySchedule(t *testing.T) {
	const (
		n     = 4
		slots = 6
	)
	fs, err := fault.NewSchedule(n, []fault.Event{
		{Kind: fault.Stutter, Pid: 0, Slot: 40, Arg: 8},
		{Kind: fault.CrashRecover, Pid: 1, Slot: 150},
		{Kind: fault.Stall, Pid: 3, Slot: 220, Arg: 16},
		{Kind: fault.CrashRecover, Pid: 2, Slot: 400},
		{Kind: fault.CrashRecover, Pid: 1, Slot: 700},
	})
	if err != nil {
		t.Fatal(err)
	}
	log := NewLog[Op](n, consensus.NewRegister[Op])
	pending := kvPending(n, slots, 59)
	fps := make([]string, n)
	logs := make([][]Op, n)
	src := sched.NewRandom(n, xrand.New(61))
	_, finished, res, err := sim.Collect(src, sim.Config{AlgSeed: 67, Faults: fs}, func(p *sim.Proc) struct{} {
		r := NewReplica(p.ID(), log, NewKV())
		logs[p.ID()] = r.Run(p, 0, pending[p.ID()])
		fps[p.ID()] = r.Fingerprint()
		return struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 {
		t.Fatal("no crash-recovery restarts were delivered; the test exercised nothing")
	}
	for r := 0; r < n; r++ {
		if !finished[r] {
			t.Fatalf("replica %d never finished its final incarnation", r)
		}
		if fps[r] != fps[0] {
			t.Fatalf("replica %d state %q != replica 0 state %q after restarts", r, fps[r], fps[0])
		}
		for s := 0; s < slots; s++ {
			if logs[r][s] != logs[0][s] {
				t.Fatalf("slot %d diverges after crash-recovery", s)
			}
		}
	}
}

// TestKVRetryUnderCrashRecovery is the DES-style adversity test for the
// replicated KV: client retry (RunRetry re-submits commands that lose
// their slot) combined with a crash-recovery fault schedule (replicas
// lose all local state and re-walk the log from the top) and a
// permanently crashed replica mid-operation. The linearizability
// obligations checked:
//
//  1. every observed log is a prefix of the longest observed log
//     (single total order of committed commands);
//  2. no command commits twice — retry plus amnesiac re-walks must stay
//     exactly-once, because a restarted replica's walk is a
//     deterministic function of the already-decided prefix;
//  3. every surviving replica's commands commit exactly once each
//     (retry eventually lands every loser);
//  4. each replica's KV state equals the reference state machine
//     replayed over the prefix it observed.
func TestKVRetryUnderCrashRecovery(t *testing.T) {
	const (
		n     = 4
		slots = 4
	)
	fs, err := fault.NewSchedule(n, []fault.Event{
		{Kind: fault.CrashRecover, Pid: 1, Slot: 120},
		{Kind: fault.Stutter, Pid: 3, Slot: 200, Arg: 8},
		{Kind: fault.CrashRecover, Pid: 2, Slot: 350},
		{Kind: fault.CrashRecover, Pid: 1, Slot: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	log := NewLog[Op](n, consensus.NewRegister[Op])
	// Distinct commands (value encodes replica and sequence) make
	// duplicate commits detectable while still contending on shared keys.
	keys := []string{"x", "y"}
	pending := make([][]Op, n)
	for r := 0; r < n; r++ {
		for s := 0; s < slots; s++ {
			pending[r] = append(pending[r], Op{
				Kind:  OpKind(s%3 + 1),
				Key:   keys[(r+s)%len(keys)],
				Value: fmt.Sprintf("r%d-s%d", r, s),
			})
		}
	}
	// Replica 0 is killed for good mid-Propose; 1 and 2 crash-recover.
	src := sched.NewCrashSet(sched.NewRandom(n, xrand.New(83)), []int{0}, 25, 89)
	logs := make([][]Op, n)
	fps := make([]string, n)
	_, finished, res, err := sim.Collect(src, sim.Config{AlgSeed: 97, Faults: fs}, func(p *sim.Proc) struct{} {
		r := NewReplica(p.ID(), log, NewKV())
		logs[p.ID()] = r.RunRetry(p, 0, pending[p.ID()], n*slots)
		fps[p.ID()] = r.Fingerprint()
		return struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 {
		t.Fatal("no crash-recovery restarts were delivered; the test exercised nothing")
	}
	if finished[0] {
		t.Fatal("the crashed leader finished; the cutoff did not kill it mid-op")
	}
	ref := logs[0]
	for r := 1; r < n; r++ {
		if !finished[r] {
			t.Fatalf("survivor %d did not finish under retry + crash-recovery", r)
		}
		if len(logs[r]) > len(ref) {
			ref = logs[r]
		}
	}
	for r := 0; r < n; r++ {
		for s := range logs[r] {
			if logs[r][s] != ref[s] {
				t.Fatalf("slot %d: replica %d observed %v, longest log has %v", s, r, logs[r][s], ref[s])
			}
		}
	}
	commits := make(map[Op]int)
	for _, cmd := range ref {
		commits[cmd]++
		if commits[cmd] > 1 {
			t.Fatalf("command %v committed twice: retry or amnesiac re-walk broke exactly-once", cmd)
		}
	}
	for r := 1; r < n; r++ {
		for _, cmd := range pending[r] {
			if commits[cmd] != 1 {
				t.Fatalf("survivor %d command %v committed %d times, want exactly 1", r, cmd, commits[cmd])
			}
		}
	}
	// Replaying the reference prefix each replica observed must reproduce
	// that replica's state byte-for-byte.
	for r := 1; r < n; r++ {
		replay := NewKV()
		for _, cmd := range ref[:len(logs[r])] {
			replay.Apply(cmd)
		}
		if fps[r] != replay.Fingerprint() {
			t.Fatalf("replica %d state %q != reference replay %q", r, fps[r], replay.Fingerprint())
		}
	}
}

// TestKillLeaderMidOp is the kill-a-leader regression test: replica 0 —
// the "leader" proposing the commands everyone is waiting on — is
// permanently crashed partway through its first consensus operation
// (cutoff 25 slots is mid-Propose: one register-model consensus op costs
// far more than 25 steps). The surviving replicas must still decide every
// slot, agree on the full log, and decide only values someone actually
// proposed; a half-completed Propose must neither wedge the instance nor
// smuggle in a phantom command.
func TestKillLeaderMidOp(t *testing.T) {
	const (
		n     = 5
		slots = 4
	)
	log := NewLog[string](n, consensus.NewRegister[string])
	pending := make([][]string, n)
	for r := 0; r < n; r++ {
		for s := 0; s < slots; s++ {
			pending[r] = append(pending[r], fmt.Sprintf("r%d-s%d", r, s))
		}
	}
	src := sched.NewCrashSet(sched.NewRandom(n, xrand.New(71)), []int{0}, 25, 73)
	logs := make([][]string, n)
	_, finished, _, err := sim.Collect(src, sim.Config{AlgSeed: 79}, func(p *sim.Proc) struct{} {
		r := NewReplica(p.ID(), log, nil)
		logs[p.ID()] = r.Run(p, 0, pending[p.ID()])
		return struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if finished[0] {
		t.Fatal("the crashed leader finished; the cutoff did not kill it mid-op")
	}
	var ref []string
	for r := 1; r < n; r++ {
		if !finished[r] {
			t.Fatalf("survivor %d did not finish: the leader's half-done op wedged consensus", r)
		}
		if len(logs[r]) != slots {
			t.Fatalf("survivor %d log length %d, want %d", r, len(logs[r]), slots)
		}
		if ref == nil {
			ref = logs[r]
			continue
		}
		for s := 0; s < slots; s++ {
			if logs[r][s] != ref[s] {
				t.Fatalf("slot %d diverges among survivors", s)
			}
		}
	}
	// Validity: every decided command is some replica's proposal for that
	// slot — including possibly the dead leader's, if its writes landed
	// before the crash, but never a value nobody proposed.
	for s := 0; s < slots; s++ {
		valid := false
		for r := 0; r < n; r++ {
			if ref[s] == pending[r][s] {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("slot %d decided phantom command %q", s, ref[s])
		}
	}
}
