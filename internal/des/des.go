// Package des is a single-threaded discrete-event simulator for the
// paper's protocols in an asynchronous message-passing system at scales
// (n = 10k-100k) the goroutine-per-process controlled engine cannot
// reach.
//
// The model is the classic client/server emulation of shared memory:
// every register, max register, and conflict-detector flag lives on a
// memory server node, and each of the n processes runs the conciliator +
// adopt-commit stack of consensus.FlatConsensus — the machine the flat
// Monte Carlo engine runs, not a copy of it. A process takes its next
// operation from the machine (NextOp), ships it to the server in one
// stop-and-wait RPC, and hands the reply back to the machine (Deliver);
// the server applies the op to its own sim.FlatMemory, the store the
// flat engine applies ops to. There are no
// goroutines and no real time: a priority event queue keyed by virtual
// nanoseconds (ties broken by insertion order) drives everything, so a
// run is a pure function of its Config — including every latency sample,
// loss decision, and partition crossing — and is byte-replayable from
// the seed.
//
// The network model supports configurable latency distributions
// (fixed/uniform/exponential), Bernoulli message loss, and timed
// partitions that isolate a fraction of the processes. Loss and
// partitions are survived by per-operation retransmission with
// exponential backoff; a server-side dedup cache makes delivery
// effectively exactly-once, so the shared objects observe each logical
// operation once no matter how many copies the network was handed.
//
// Randomness discipline matches the rest of the repository: the network
// draws (latency, loss) from its own xrand fork, processes pre-draw
// their protocol randomness into personas from per-process forks, and
// the two never mix — the network is an oblivious adversary, adversarial
// in timing but blind to register contents and coin flips.
package des

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/fault"
)

// Protocol names accepted by Config.Protocol.
const (
	// ProtoSifter is Algorithm 2 with the paper's tuned per-round write
	// probabilities: O(log log n) rounds.
	ProtoSifter = consensus.ConcSifter
	// ProtoSifterHalf is the constant-probability (p = 1/2) sifter: the
	// classical O(log n)-round baseline the tuned schedule is measured
	// against.
	ProtoSifterHalf = consensus.ConcSifterHalf
	// ProtoPriorityMax is Algorithm 1 in its footnote-1 form: priorities
	// resolved through a max register instead of snapshots, O(log* n)
	// rounds and O(1) server work per operation.
	ProtoPriorityMax = consensus.ConcPriorityMax
)

// Protocols lists the supported protocol names in presentation order.
func Protocols() []string {
	return []string{ProtoSifter, ProtoSifterHalf, ProtoPriorityMax}
}

// LatencyKind selects a message-latency distribution.
type LatencyKind uint8

const (
	// LatFixed delivers every message after exactly Mean.
	LatFixed LatencyKind = iota
	// LatUniform draws uniformly from [0, 2*Mean).
	LatUniform
	// LatExp draws from the exponential distribution with the given mean
	// (memoryless — the standard asynchronous-network model).
	LatExp
)

func (k LatencyKind) String() string {
	switch k {
	case LatFixed:
		return "fixed"
	case LatUniform:
		return "uniform"
	case LatExp:
		return "exp"
	}
	return fmt.Sprintf("LatencyKind(%d)", int(k))
}

// LatencyDist is a one-way message latency distribution.
type LatencyDist struct {
	Kind LatencyKind
	// Mean is the distribution mean; zero means the 1ms default.
	Mean time.Duration
}

func (d LatencyDist) String() string {
	return fmt.Sprintf("%s:%s", d.Kind, d.Mean)
}

// ParseLatency parses "kind:mean" (e.g. "exp:1ms", "uniform:500us",
// "fixed:2ms"). A bare duration means fixed.
func ParseLatency(s string) (LatencyDist, error) {
	kind, mean := LatFixed, s
	if i := strings.IndexByte(s, ':'); i >= 0 {
		switch s[:i] {
		case "fixed":
			kind = LatFixed
		case "uniform":
			kind = LatUniform
		case "exp":
			kind = LatExp
		default:
			return LatencyDist{}, fmt.Errorf("des: unknown latency kind %q (want fixed, uniform, or exp)", s[:i])
		}
		mean = s[i+1:]
	}
	d, err := time.ParseDuration(mean)
	if err != nil {
		return LatencyDist{}, fmt.Errorf("des: bad latency mean %q: %v", mean, err)
	}
	if d <= 0 {
		return LatencyDist{}, fmt.Errorf("des: latency mean must be positive, got %v", d)
	}
	return LatencyDist{Kind: kind, Mean: d}, nil
}

// Partition isolates the Frac highest-id processes from every other node
// (including the memory server) for virtual times in [From, Until).
// Messages crossing the cut are silently discarded at send time;
// retransmission recovers them after the partition heals. The server is
// never isolated. Partitions must heal (Until finite and > From) so that
// termination stays almost-sure.
type Partition struct {
	From  time.Duration
	Until time.Duration
	// Frac in (0, 1]: the fraction of processes isolated, rounded up.
	Frac float64
}

func (p Partition) String() string {
	return fmt.Sprintf("%s:%s:%g", p.From, p.Until, p.Frac)
}

// ParsePartition parses "from:until:frac", e.g. "5ms:25ms:0.3".
func ParsePartition(s string) (Partition, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return Partition{}, fmt.Errorf("des: bad partition %q (want from:until:frac, e.g. 5ms:25ms:0.3)", s)
	}
	from, err := time.ParseDuration(parts[0])
	if err != nil {
		return Partition{}, fmt.Errorf("des: bad partition start %q: %v", parts[0], err)
	}
	until, err := time.ParseDuration(parts[1])
	if err != nil {
		return Partition{}, fmt.Errorf("des: bad partition end %q: %v", parts[1], err)
	}
	// strconv.ParseFloat, not fmt.Sscanf: Sscanf accepts partial parses
	// ("0.3abc" and "0.3 0.5" both yield 0.3 with a nil error).
	frac, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return Partition{}, fmt.Errorf("des: bad partition fraction %q: %v", parts[2], err)
	}
	return Partition{From: from, Until: until, Frac: frac}, nil
}

// NetConfig describes the network model of a run.
type NetConfig struct {
	// Latency is the one-way message latency distribution. A zero value
	// means exponential with mean 1ms.
	Latency LatencyDist
	// Loss is the independent per-message drop probability in [0, 0.99].
	Loss float64
	// Partitions are timed cuts; see Partition.
	Partitions []Partition
}

// Config describes one DES consensus run.
type Config struct {
	// N is the number of processes.
	N int
	// Protocol is one of the Proto* names.
	Protocol string
	// Epsilon is the per-phase conciliator agreement-failure budget
	// (0 means the repository default 1/8).
	Epsilon float64
	// Seed is the master seed; algorithm and network streams are forked
	// from it under distinct labels.
	Seed uint64
	// Inputs are the per-process consensus inputs, each in {0, 1} (the
	// adopt-commit shim is the 5-step binary register object). Nil means
	// the binary workload: process i proposes i mod 2.
	Inputs []int
	// Net is the network model.
	Net NetConfig
	// Chaos is the crash-recovery layer: seeded crash schedules for
	// processes and the memory server with durable/amnesiac restarts.
	// The zero value means no crashes.
	Chaos ChaosConfig
	// Retry tunes the client retry policy (timeout, capped exponential
	// backoff, jitter, give-up). Zero fields take the engine defaults.
	Retry RetryPolicy
	// MaxEvents bounds the engine (0 = 1<<26). Exceeding it reports
	// nontermination.
	MaxEvents int64
	// MaxPhases bounds conciliator+adopt-commit phases per process
	// (0 = 64). With epsilon = 1/8 a run needs more than a handful of
	// phases only if something is wrong.
	MaxPhases int
}

func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 0.125
	}
	if c.Net.Latency.Mean <= 0 {
		c.Net.Latency = LatencyDist{Kind: LatExp, Mean: time.Millisecond}
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 1 << 26
	}
	if c.MaxPhases <= 0 {
		c.MaxPhases = 64
	}
	c.Chaos = c.Chaos.withDefaults()
	return c
}

func (c Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("des: need at least one process, got n=%d", c.N)
	}
	switch c.Protocol {
	case ProtoSifter, ProtoSifterHalf, ProtoPriorityMax:
	default:
		return fmt.Errorf("des: unknown protocol %q (want %s)", c.Protocol, strings.Join(Protocols(), ", "))
	}
	// The >=/<= shapes reject NaN too: a NaN epsilon, loss, or fraction
	// would pass naive two-sided comparisons and silently corrupt the
	// run (NaN compares false against everything).
	if !(c.Epsilon > 0 && c.Epsilon < 1) {
		return fmt.Errorf("des: epsilon must be in (0, 1), got %g", c.Epsilon)
	}
	if !(c.Net.Loss >= 0 && c.Net.Loss <= 0.99) {
		return fmt.Errorf("des: loss must be in [0, 0.99], got %g (loss 1 would drop every message forever)", c.Net.Loss)
	}
	if c.Inputs != nil && len(c.Inputs) != c.N {
		return fmt.Errorf("des: got %d inputs for %d processes", len(c.Inputs), c.N)
	}
	for i, in := range c.Inputs {
		if in != 0 && in != 1 {
			return fmt.Errorf("des: input of process %d is %d; the message-passing adopt-commit is binary", i, in)
		}
	}
	for i, p := range c.Net.Partitions {
		if p.From < 0 || p.Until <= p.From {
			return fmt.Errorf("des: partition %d window [%v, %v) is empty or negative; partitions must heal", i, p.From, p.Until)
		}
		if !(p.Frac > 0 && p.Frac <= 1) {
			return fmt.Errorf("des: partition %d isolates fraction %g (want (0, 1])", i, p.Frac)
		}
	}
	if err := c.Chaos.validate(c.N); err != nil {
		return err
	}
	return c.Retry.validate()
}

// ProcOutcome is a process's terminal state in a Result.
type ProcOutcome uint8

const (
	// OutcomeUndecided: the run ended (budget, deadlock) before the
	// process decided.
	OutcomeUndecided ProcOutcome = iota
	// OutcomeDecided: the process committed a decision.
	OutcomeDecided
	// OutcomeGaveUp: the process exhausted its retry budget and
	// surfaced graceful degradation instead of blocking the run.
	OutcomeGaveUp
)

func (o ProcOutcome) String() string {
	switch o {
	case OutcomeUndecided:
		return "undecided"
	case OutcomeDecided:
		return "decided"
	case OutcomeGaveUp:
		return "gave-up"
	}
	return fmt.Sprintf("ProcOutcome(%d)", int(o))
}

// Result is the outcome of one DES run.
type Result struct {
	N        int
	Protocol string
	// Rounds is the conciliator round count per phase.
	Rounds int
	// AllDecided reports whether every process decided.
	AllDecided bool
	// Decision is the agreed value (meaningful when AllDecided).
	Decision int
	// Phases is the largest number of conciliator+adopt-commit phases
	// any process ran.
	Phases int
	// Steps[i] is the number of shared-memory operations (RPC round
	// trips) process i issued — the paper's individual-work measure.
	Steps []int64
	// Message accounting: requests+replies handed to the network,
	// scheduled deliveries, losses, partition discards, and
	// retransmissions (already included in MsgsSent).
	MsgsSent      int64
	MsgsDelivered int64
	MsgsDropped   int64
	MsgsBlocked   int64
	Retransmits   int64
	// VirtualTime is the virtual clock when the last process decided.
	VirtualTime time.Duration
	// Events is the number of events the engine handled.
	Events int64
	// Chaos accounting: crash events executed, restarts performed,
	// memory-server register wipes (amnesiac server restarts), session
	// resyncs (amnesiac process restarts), messages discarded because
	// the destination node was down, and processes that exhausted their
	// retry budget.
	Crashes    int64
	Restarts   int64
	Wipes      int64
	Resyncs    int64
	ChaosDrops int64
	GaveUp     int
	// Outcomes[i] is process i's terminal state.
	Outcomes []ProcOutcome
	// Server-side exactly-once accounting: logical operations applied
	// and duplicate requests absorbed by the dedup cache.
	OpsApplied int64
	DupDrops   int64
	// Violations is everything the attached safety monitors reported.
	Violations []fault.Violation
}

// TotalSteps sums the per-process operation counts.
func (r Result) TotalSteps() int64 {
	var t int64
	for _, s := range r.Steps {
		t += s
	}
	return t
}

// MaxSteps returns the largest per-process operation count.
func (r Result) MaxSteps() int64 {
	var m int64
	for _, s := range r.Steps {
		if s > m {
			m = s
		}
	}
	return m
}
