package fault

import (
	"fmt"
	"math"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
)

// Injector-side metrics: how many faults of each family actually fired.
// Nil (free no-ops) until a metrics registry is installed.
var (
	mStutterSlots *metrics.Counter
	mStallSlots   *metrics.Counter
	mRestarts     *metrics.Counter
	mStaleReads   *metrics.Counter
	mStaleScans   *metrics.Counter
)

func init() {
	metrics.OnEnable(func(r *metrics.Registry) {
		mStutterSlots = r.Counter("fault.injected.stutter_slots")
		mStallSlots = r.Counter("fault.injected.stall_slots")
		mRestarts = r.Counter("fault.injected.restarts")
		mStaleReads = r.Counter("fault.injected.stale_reads")
		mStaleScans = r.Counter("fault.injected.stale_scans")
	})
}

// Counts reports how many faults an injector actually delivered during
// one run. Events whose clocks were never reached (slot past the run's
// end, op index past the process's last read) do not count.
type Counts struct {
	StutterSlots int64 `json:"stutter_slots"`
	StallSlots   int64 `json:"stall_slots"`
	Restarts     int64 `json:"restarts"`
	StaleReads   int64 `json:"stale_reads"`
	StaleScans   int64 `json:"stale_scans"`
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.StutterSlots += other.StutterSlots
	c.StallSlots += other.StallSlots
	c.Restarts += other.Restarts
	c.StaleReads += other.StaleReads
	c.StaleScans += other.StaleScans
}

// Total returns the number of delivered faults across all families.
func (c Counts) Total() int64 {
	return c.StutterSlots + c.StallSlots + c.Restarts + c.StaleReads + c.StaleScans
}

// histCap bounds the per-object write history the injector retains for
// stale reads. A safe read whose staleness depth reaches past the ring
// observes the null value, which is within a safe register's contract.
const histCap = 64

// ring is a bounded write history for one shared object (or one snapshot
// component): the last histCap recorded values plus the total count, so
// "d writes ago" is answerable without unbounded memory.
type ring struct {
	vals  [histCap]any
	total int64
}

func (h *ring) push(v any) {
	h.vals[h.total%histCap] = v
	h.total++
}

// staleAt returns the value d writes before the latest (d=1 is the value
// the latest write replaced). It reports false — "unwritten" — when the
// object had fewer writes than d+1 or the ring has evicted that far back.
func (h *ring) staleAt(d int64) (any, bool) {
	if h == nil || d <= 0 {
		return nil, false
	}
	idx := h.total - 1 - d
	if idx < 0 || idx < h.total-histCap {
		return nil, false
	}
	return h.vals[idx%histCap], true
}

// procState is the injector's per-process bookkeeping.
type procState struct {
	stutter    int64 // granted slots still to waste
	stallUntil int64 // slots before this index are starved

	readEvents []Event // StaleRead events, sorted by Op
	readCur    int
	readOps    int64 // read-class operations performed so far

	scanEvents []Event // StaleScan events, sorted by Op
	scanCur    int
	scanOps    int64 // scan operations performed so far
}

// Injector interprets one fault Schedule over one controlled run. The
// simulator driver consults it when a fault is due (Advance, TakeRestart,
// NextSlot) and on the grants of a process a stutter or stall may starve
// (Wasted); the memory substrate consults it on every read-class
// operation through the memory.Faulter capability. It is single-run,
// single-goroutine state: the controlled engine runs one process at a
// time, which is the only mode faults support.
type Injector struct {
	n int

	slotEvents []Event // process faults, sorted by Slot
	slotCur    int
	restarts   []int // pids with a pending crash-recovery, FIFO

	procs  []procState
	hist   map[any]*ring
	counts Counts
}

// NewInjector builds an injector for schedule s over n processes,
// refusing schedules that are invalid or sized for a different n.
func NewInjector(s *Schedule, n int) (*Injector, error) {
	if s == nil {
		return nil, fmt.Errorf("fault: nil schedule")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.n != n {
		return nil, fmt.Errorf("fault: schedule targets %d processes, run has %d", s.n, n)
	}
	inj := &Injector{
		n:     n,
		procs: make([]procState, n),
		hist:  make(map[any]*ring),
	}
	for _, e := range s.events {
		switch e.Kind {
		case Stutter, Stall, CrashRecover:
			inj.slotEvents = append(inj.slotEvents, e)
		case StaleRead:
			ps := &inj.procs[e.Pid]
			ps.readEvents = append(ps.readEvents, e)
		case StaleScan:
			ps := &inj.procs[e.Pid]
			ps.scanEvents = append(ps.scanEvents, e)
		}
	}
	// Schedule normalization already ordered slot events by Slot and
	// per-pid op events by Op, and appending preserved those orders.
	return inj, nil
}

// Advance delivers every process fault whose slot clock has been
// reached and returns the events it delivered, which the caller must not
// modify. The driver calls it at the top of a slot, before drawing a pid.
func (inj *Injector) Advance(slot int64) []Event {
	from := inj.slotCur
	for inj.slotCur < len(inj.slotEvents) && inj.slotEvents[inj.slotCur].Slot <= slot {
		e := inj.slotEvents[inj.slotCur]
		inj.slotCur++
		switch e.Kind {
		case Stutter:
			inj.procs[e.Pid].stutter += e.Arg
		case Stall:
			if until := e.Slot + e.Arg; until > inj.procs[e.Pid].stallUntil {
				inj.procs[e.Pid].stallUntil = until
			}
		case CrashRecover:
			inj.restarts = append(inj.restarts, e.Pid)
		}
	}
	return inj.slotEvents[from:inj.slotCur]
}

// NextSlot returns the slot clock of the next undelivered process fault,
// or math.MaxInt64 when none is left.
func (inj *Injector) NextSlot() int64 {
	if inj.slotCur == len(inj.slotEvents) {
		return math.MaxInt64
	}
	return inj.slotEvents[inj.slotCur].Slot
}

// TakeRestart pops the next pending crash-recovery target, if any. The
// driver restarts that process with amnesia before running the slot.
func (inj *Injector) TakeRestart() (int, bool) {
	if len(inj.restarts) == 0 {
		return 0, false
	}
	pid := inj.restarts[0]
	inj.restarts = inj.restarts[1:]
	inj.counts.Restarts++
	mRestarts.Inc()
	return pid, true
}

// Wasted reports whether the slot granted to pid is consumed by a
// stutter or stall: the slot is spent (it counts against the budget and
// the adversary's schedule) but the process does not run.
func (inj *Injector) Wasted(pid int, slot int64) bool {
	ps := &inj.procs[pid]
	if slot < ps.stallUntil {
		inj.counts.StallSlots++
		mStallSlots.Inc()
		return true
	}
	if ps.stutter > 0 {
		ps.stutter--
		inj.counts.StutterSlots++
		mStutterSlots.Inc()
		return true
	}
	return false
}

// OnWrite records v as the newest value of the shared object (or
// snapshot component) identified by key. Stale reads are answered from
// this history.
func (inj *Injector) OnWrite(key any, v any) {
	h := inj.hist[key]
	if h == nil {
		h = &ring{}
		inj.hist[key] = h
	}
	h.push(v)
}

// ReadFault counts one read-class operation by pid and, if a StaleRead
// event fires at this operation index, returns the substitute result:
// hit=false reads normally; hit=true with stale==nil observes "never
// written"; otherwise stale is the value the event's depth selects from
// the object's history.
func (inj *Injector) ReadFault(pid int, key any) (stale any, hit bool) {
	ps := &inj.procs[pid]
	op := ps.readOps
	ps.readOps++
	for ps.readCur < len(ps.readEvents) && ps.readEvents[ps.readCur].Op < op {
		ps.readCur++
	}
	if ps.readCur == len(ps.readEvents) || ps.readEvents[ps.readCur].Op != op {
		return nil, false
	}
	e := ps.readEvents[ps.readCur]
	ps.readCur++
	inj.counts.StaleReads++
	mStaleReads.Inc()
	if e.Arg == 0 {
		// Depth 0 is the safe-register null result.
		return nil, true
	}
	v, ok := inj.hist[key].staleAt(e.Arg)
	if !ok {
		return nil, true
	}
	return v, true
}

// ScanDepth counts one scan operation by pid and returns the staleness
// depth a StaleScan event imposes on it, or 0 for an atomic scan.
func (inj *Injector) ScanDepth(pid int, obj any) int {
	ps := &inj.procs[pid]
	op := ps.scanOps
	ps.scanOps++
	for ps.scanCur < len(ps.scanEvents) && ps.scanEvents[ps.scanCur].Op < op {
		ps.scanCur++
	}
	if ps.scanCur == len(ps.scanEvents) || ps.scanEvents[ps.scanCur].Op != op {
		return 0
	}
	e := ps.scanEvents[ps.scanCur]
	ps.scanCur++
	inj.counts.StaleScans++
	mStaleScans.Inc()
	return int(e.Arg)
}

// StaleAt answers "the value depth writes back" for the object or
// component identified by key; ok=false means unwritten at that depth.
func (inj *Injector) StaleAt(key any, depth int) (any, bool) {
	return inj.hist[key].staleAt(int64(depth))
}

// Counts returns the faults delivered so far.
func (inj *Injector) Counts() Counts { return inj.counts }
