package paging

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// This file is the policy-replay half of the box-profile substrate: the
// same memory profile the square semantics discretise (a box of size X
// grants X I/Os at capacity X), executed against a *live* replacement
// kernel instead of the cleared-cache square idealisation. Under square
// semantics every policy is identical — the cache is emptied at each box
// boundary, so a box of size X serves exactly X distinct blocks no matter
// who picks victims. PolicyStream is what makes policies distinguishable:
// the kernel's state survives box boundaries, SetCapacity applies the new
// box size (evicting per the policy on shrink), and the box charges one
// unit of budget per miss *as the policy replays it*. Experiment E12 runs
// both against the same profile; the spread between a policy's boxes and
// the square bound is exactly the adaptivity gap the paper's potential
// argument controls.

// Reserved replay names: accepted wherever a policy name selects a
// box-profile replay, alongside the kernel registry (PolicyNames).
const (
	// SquareReplayName selects the cleared-cache square semantics
	// (SquareStream) — the paper's upper-bound discretisation, identical
	// for every policy.
	SquareReplayName = "square"
	// OPTReplayName selects Belady's farthest-in-future choice replayed
	// under the box profile — the clairvoyant baseline.
	OPTReplayName = "opt"
)

// ReplayNames lists every name Replay accepts: the registered kernels
// plus the reserved "opt" and "square" replays, sorted.
func ReplayNames() []string {
	names := PolicyNames()
	names = append(names, OPTReplayName, SquareReplayName)
	return names
}

// PolicyStream consumes a reference stream through a live ReplacementPolicy
// whose capacity follows boxes drawn from a profile source: entering a box
// of size X resizes the kernel to X (evicting per the policy if it shrank)
// and grants a budget of X misses; the box ends when the budget is spent.
// Unlike SquareStream the cache is never cleared — the kernel's state is
// exactly what persists across profile changes. Feed it accesses (directly
// or via trace.Replay), then call Finish to close the last box; each box is
// passed to the stream's fold as it closes.
type PolicyStream struct {
	boxLedger
	policy ReplacementPolicy
}

// NewPolicyStream returns a stream replaying through policy against box
// sizes from src and passing each box to fold as it closes; maxBoxes
// guards against pathological stalls (0 = unbounded). The policy's
// starting capacity is irrelevant — the first box resizes it.
func NewPolicyStream(policy ReplacementPolicy, src profile.Source, maxBoxes int64, fold func(BoxStat)) *PolicyStream {
	return &PolicyStream{boxLedger: boxLedger{boxCursor: boxCursor{src: src, maxBoxes: maxBoxes}, fold: fold}, policy: policy}
}

// Reserve pre-sizes the kernel's dense indexes for block IDs up to maxBlock.
func (q *PolicyStream) Reserve(maxBlock int64) { q.policy.Reserve(maxBlock) }

// resize applies the current box's size to the kernel; false once the
// stream has errored.
func (q *PolicyStream) resize() bool {
	if err := q.policy.SetCapacity(q.cur.Size); err != nil {
		q.err = err
		return false
	}
	return true
}

// Access serves one block reference: a resident block is a free hit against
// the current box; a miss spends one unit of the box's budget, rolling to
// the next box (and capacity) first when the budget is already spent. The
// kernel's Hit serves a hit in one call; Access runs only on a miss, after
// the box has rolled.
//
//lint:hotpath
func (q *PolicyStream) Access(block int64) {
	if q.err != nil {
		return
	}
	if !q.started && !(q.open() && q.resize()) {
		return
	}
	if q.policy.Hit(block) {
		q.cur.Refs++
		q.refs++
		return
	}
	// Miss: needs an I/O from the current box's budget.
	if q.cur.IOs == q.cur.Size {
		// Budget exhausted: this reference belongs to the next box.
		q.fold(q.cur)
		if !(q.opened(q.next()) && q.resize()) {
			return
		}
	}
	q.policy.Access(block)
	q.cur.IOs++
	q.cur.Refs++
	q.refs++
}

// AccessRange serves blocks [lo, lo+count) in order, stopping at an error.
func (q *PolicyStream) AccessRange(lo, count int64) {
	for i := int64(0); i < count && q.err == nil; i++ {
		q.Access(lo + i)
	}
}

var (
	_ trace.Sink    = (*PolicyStream)(nil)
	_ trace.Stopper = (*PolicyStream)(nil)
)

// optMaxRefs is the most references the opt replay records — the ceiling
// regular.SyntheticTrace enforces.
const optMaxRefs = int64(1) << 28

// Replay runs a generated stream under the box profile src by replay name
// (ReplayNames) and passes each box to fold as it closes, in box order.
// emit must produce the identical reference sequence on every call; a
// materialized trace passes tr.Emit. totalRefs is the stream length, which
// opt checks against its recording ceiling and pre-sizes its record from;
// maxBlock is its largest block ID (-1 if unknown), used to pre-size state.
// maxBoxes guards against pathological stalls (0 = unbounded). On error the
// boxes closed before it have been folded.
//
//   - A registered kernel streams through PolicyStream.
//   - "square" streams through SquareStream, consuming src directly.
//   - "opt" needs the future, so it records the stream (refusing more than
//     2^28 references before recording anything) and runs Belady's
//     farthest-in-future choice under the profile.
//
// Unknown names error with every accepted name listed. This is the one
// dispatch over ReplayNames; PolicyRun and the adaptivity and mmtrace box
// replays all go through it. Fixed-capacity OPT (OPTRecording.Fixed) runs
// the same OPT loop at a constant profile.
func Replay(name string, emit func(trace.Sink) error, totalRefs, maxBlock int64, src profile.Source, maxBoxes int64, fold func(BoxStat)) error {
	switch name {
	case SquareReplayName:
		return replayInto(NewSquareStream(src, maxBoxes, fold), emit, maxBlock)
	case OPTReplayName:
		rec, err := RecordOPT(emit, totalRefs, maxBlock)
		if err != nil {
			return err
		}
		return rec.Replay(src, maxBoxes, fold)
	}
	p, err := NewReplacementPolicy(name, 1)
	if err != nil {
		return fmt.Errorf("paging: unknown replay policy %q (have %v)", name, ReplayNames())
	}
	return replayInto(NewPolicyStream(p, src, maxBoxes, fold), emit, maxBlock)
}

// boxStream is the shared shape of SquareStream and PolicyStream.
type boxStream interface {
	trace.Sink
	Reserve(maxBlock int64)
	Finish() error
}

// replayInto emits the stream into q and closes its last box.
func replayInto(q boxStream, emit func(trace.Sink) error, maxBlock int64) error {
	if maxBlock >= 0 {
		q.Reserve(maxBlock)
	}
	if err := emit(q); err != nil {
		return err
	}
	return q.Finish()
}

// collect returns a fold that appends each box to *stats.
func collect(stats *[]BoxStat) func(BoxStat) {
	return func(s BoxStat) { *stats = append(*stats, s) }
}

// PolicyRun replays a materialized trace under the box profile src by
// replay name and returns the per-box ledger; see Replay.
func PolicyRun(name string, tr *trace.Trace, src profile.Source, maxBoxes int64) ([]BoxStat, error) {
	var stats []BoxStat
	err := Replay(name, tr.Emit, int64(tr.Len()), tr.MaxBlock(), src, maxBoxes, collect(&stats))
	return stats, err
}

// RunPolicyFixed replays tr at a fixed capacity by name — a registered
// kernel, or "opt" for Belady's baseline — and returns the miss count.
// This is the DAM-model counterpart of Replay, used by the DAM-validation
// and smoothness experiments. Registry kernels run RunKernelFixed on a
// fresh kernel; "opt" records tr and runs OPTRecording.Fixed, the box
// replay at a constant profile. A caller sweeping many capacities over one
// trace records it once (RecordOPT) and calls Fixed per capacity, or keeps
// one kernel and calls RunKernelFixed per capacity, instead.
func RunPolicyFixed(name string, tr *trace.Trace, capacity int64) (int64, error) {
	if name == OPTReplayName {
		rec, err := RecordOPT(tr.Emit, int64(tr.Len()), tr.MaxBlock())
		if err != nil {
			return 0, err
		}
		return rec.Fixed(capacity)
	}
	p, err := NewReplacementPolicy(name, capacity)
	if err != nil {
		return 0, err
	}
	return RunKernelFixed(p, tr, capacity)
}

// RunKernelFixed empties p, sets its capacity, replays tr through it in a
// bare access loop and returns the replay's misses. p's earlier contents
// and capacity do not matter (Clear resets the replacement state; the
// counters are read as a delta), so one kernel serves a whole capacity
// sweep and reserves its dense index once.
func RunKernelFixed(p ReplacementPolicy, tr *trace.Trace, capacity int64) (int64, error) {
	p.Clear()
	if err := p.SetCapacity(capacity); err != nil {
		return 0, err
	}
	p.Reserve(tr.MaxBlock())
	before := p.Misses()
	// The package's own kernels get a loop over their concrete type, so
	// each access is a direct call rather than an interface dispatch (E13
	// runs hundreds of these replays); any other registered policy runs
	// through the interface.
	switch k := p.(type) {
	case *FIFO:
		for i := 0; i < tr.Len(); i++ {
			k.Access(tr.Block(i))
		}
	case *LRU:
		for i := 0; i < tr.Len(); i++ {
			k.Access(tr.Block(i))
		}
	case *ARC:
		for i := 0; i < tr.Len(); i++ {
			k.Access(tr.Block(i))
		}
	case *TwoQ:
		for i := 0; i < tr.Len(); i++ {
			k.Access(tr.Block(i))
		}
	default:
		for i := 0; i < tr.Len(); i++ {
			p.Access(tr.Block(i))
		}
	}
	return p.Misses() - before, nil
}
