package linearize

import (
	"sync"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func TestEmptyHistory(t *testing.T) {
	ok, err := Check(RegisterSemantics{}, nil)
	if err != nil || !ok {
		t.Fatalf("empty history: ok=%v err=%v", ok, err)
	}
}

func TestTooLongHistoryRejected(t *testing.T) {
	hist := make([]Op, 65)
	for i := range hist {
		hist[i] = Op{Kind: Write, Start: int64(2 * i), End: int64(2*i + 1)}
	}
	if _, err := Check(RegisterSemantics{}, hist); err == nil {
		t.Fatal("expected length error")
	}
}

func TestSequentialRegisterHistories(t *testing.T) {
	tests := []struct {
		name string
		hist []Op
		want bool
	}{
		{
			name: "write then read",
			hist: []Op{
				{Kind: Write, Arg: 5, Start: 1, End: 2},
				{Kind: Read, Out: 5, OutOK: true, Start: 3, End: 4},
			},
			want: true,
		},
		{
			name: "read before any write sees null",
			hist: []Op{
				{Kind: Read, OutOK: false, Start: 1, End: 2},
				{Kind: Write, Arg: 5, Start: 3, End: 4},
			},
			want: true,
		},
		{
			name: "read misses the only write",
			hist: []Op{
				{Kind: Write, Arg: 5, Start: 1, End: 2},
				{Kind: Read, OutOK: false, Start: 3, End: 4},
			},
			want: false,
		},
		{
			name: "stale read after overwrite",
			hist: []Op{
				{Kind: Write, Arg: 1, Start: 1, End: 2},
				{Kind: Write, Arg: 2, Start: 3, End: 4},
				{Kind: Read, Out: 1, OutOK: true, Start: 5, End: 6},
			},
			want: false,
		},
		{
			name: "concurrent write allows either read value",
			hist: []Op{
				{Kind: Write, Arg: 1, Start: 1, End: 10},
				{Kind: Write, Arg: 2, Start: 2, End: 9},
				{Kind: Read, Out: 1, OutOK: true, Start: 3, End: 8},
			},
			want: true,
		},
		{
			name: "new-old read inversion is not linearizable",
			hist: []Op{
				{Kind: Write, Arg: 1, Start: 1, End: 2},
				{Kind: Write, Arg: 2, Start: 3, End: 4},
				{Kind: Read, Out: 2, OutOK: true, Start: 5, End: 6},
				{Kind: Read, Out: 1, OutOK: true, Start: 7, End: 8},
			},
			want: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Check(RegisterSemantics{}, tt.hist)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("Check = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMaxRegisterSemanticsHistories(t *testing.T) {
	// Writing a smaller value must not lower the maximum.
	hist := []Op{
		{Kind: Write, Arg: 9, Start: 1, End: 2},
		{Kind: Write, Arg: 3, Start: 3, End: 4},
		{Kind: Read, Out: 9, OutOK: true, Start: 5, End: 6},
	}
	ok, err := Check(MaxRegisterSemantics{}, hist)
	if err != nil || !ok {
		t.Fatalf("max history should linearize: ok=%v err=%v", ok, err)
	}
	// The same history is NOT a valid plain register history.
	ok, err = Check(RegisterSemantics{}, hist)
	if err != nil || ok {
		t.Fatalf("plain register semantics should reject: ok=%v err=%v", ok, err)
	}
	// A max register may never go backwards.
	bad := []Op{
		{Kind: Write, Arg: 9, Start: 1, End: 2},
		{Kind: Read, Out: 3, OutOK: true, Start: 3, End: 4},
	}
	ok, err = Check(MaxRegisterSemantics{}, bad)
	if err != nil || ok {
		t.Fatalf("regressing max should be rejected: ok=%v err=%v", ok, err)
	}
}

// recordedRegisterHistory hammers a memory.Register from several
// goroutines while recording intervals.
func recordedRegisterHistory(t *testing.T, writers, readers, opsEach int, seed uint64) []Op {
	t.Helper()
	var (
		rec Recorder
		reg = memory.NewRegister[int64]()
		wg  sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xrand.New(seed + uint64(w))
			for i := 0; i < opsEach; i++ {
				v := int64(rng.Intn(1000))
				start := rec.Begin()
				reg.Write(memory.Free, v)
				rec.EndWrite(w, v, start)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				start := rec.Begin()
				v, ok := reg.Read(memory.Free)
				rec.EndRead(writers+r, v, ok, start)
			}
		}()
	}
	wg.Wait()
	return rec.History()
}

func TestMemoryRegisterIsLinearizable(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		hist := recordedRegisterHistory(t, 3, 3, 4, uint64(trial)*7+1)
		ok, err := Check(RegisterSemantics{}, hist)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: recorded history not linearizable:\n%+v", trial, hist)
		}
	}
}

func TestMemoryMaxRegisterIsLinearizable(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		var (
			rec Recorder
			m   = memory.NewMaxRegister[int64]()
			wg  sync.WaitGroup
		)
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := xrand.New(uint64(trial*31 + w))
				for i := 0; i < 4; i++ {
					v := int64(rng.Intn(1000))
					start := rec.Begin()
					m.WriteMax(memory.Free, uint64(v), v)
					rec.EndWrite(w, v, start)
				}
			}()
		}
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					start := rec.Begin()
					_, v, ok := m.ReadMax(memory.Free)
					rec.EndRead(3+r, v, ok, start)
				}
			}()
		}
		wg.Wait()
		ok, err := Check(MaxRegisterSemantics{}, rec.History())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: max-register history not linearizable", trial)
		}
	}
}

func TestTreeMaxRegisterIsLinearizable(t *testing.T) {
	// The interesting target: the register-built tree max register's
	// linearizability is a theorem (AACH), not a mutex artifact.
	for trial := 0; trial < 20; trial++ {
		var (
			rec Recorder
			m   = memory.NewTreeMaxRegister[int64](10)
			wg  sync.WaitGroup
		)
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := xrand.New(uint64(trial*53 + w))
				for i := 0; i < 3; i++ {
					v := int64(rng.Intn(1 << 10))
					start := rec.Begin()
					m.WriteMax(memory.Free, uint64(v), v)
					rec.EndWrite(w, v, start)
				}
			}()
		}
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					start := rec.Begin()
					_, v, ok := m.ReadMax(memory.Free)
					rec.EndRead(3+r, v, ok, start)
				}
			}()
		}
		wg.Wait()
		ok, err := Check(MaxRegisterSemantics{}, rec.History())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: tree max register history not linearizable:\n%+v", trial, rec.History())
		}
	}
}

func TestRecorderHistoryIsCopy(t *testing.T) {
	var rec Recorder
	start := rec.Begin()
	rec.EndWrite(0, 1, start)
	h := rec.History()
	h[0].Arg = 99
	if rec.History()[0].Arg == 99 {
		t.Fatal("History aliases internal state")
	}
}
