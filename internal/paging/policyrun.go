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
// or via trace.Replay), then call Finish for the per-box statistics.
type PolicyStream struct {
	policy   ReplacementPolicy
	src      profile.Source
	maxBoxes int64
	stats    []BoxStat
	cur      BoxStat
	started  bool
	err      error
	markedAt int64 // cur.Refs total at the last EndLeaf (idempotency)
	refs     int64 // total refs across all boxes, for markedAt
}

// NewPolicyStream returns a stream replaying through policy against box
// sizes from src; maxBoxes guards against pathological stalls (0 =
// unbounded). The policy's starting capacity is irrelevant — the first box
// resizes it.
func NewPolicyStream(policy ReplacementPolicy, src profile.Source, maxBoxes int64) *PolicyStream {
	return &PolicyStream{policy: policy, src: src, maxBoxes: maxBoxes}
}

// Reserve pre-sizes the kernel's dense indexes for block IDs up to maxBlock.
func (q *PolicyStream) Reserve(maxBlock int64) { q.policy.Reserve(maxBlock) }

// openBox draws the next box and resizes the kernel to it.
func (q *PolicyStream) openBox() {
	q.cur = BoxStat{Size: q.src.Next()}
	if q.cur.Size < 1 {
		//lint:ignore hotpath error path: the stream is dead after this, one allocation to say why is fine
		q.err = fmt.Errorf("paging: box source produced size %d", q.cur.Size)
		q.started = false
		return
	}
	if err := q.policy.SetCapacity(q.cur.Size); err != nil {
		q.err = err
		q.started = false
	}
}

// Access serves one block reference: a resident block is a free hit against
// the current box; a miss spends one unit of the box's budget, rolling to
// the next box (and capacity) first when the budget is already spent.
//
//lint:hotpath
func (q *PolicyStream) Access(block int64) {
	if q.err != nil {
		return
	}
	if !q.started {
		q.started = true
		q.openBox()
		if q.err != nil {
			return
		}
	}
	if q.policy.Contains(block) {
		q.policy.Access(block)
		q.cur.Refs++
		q.refs++
		return
	}
	// Miss: needs an I/O from the current box's budget.
	if q.cur.IOs == q.cur.Size {
		// Budget exhausted: this reference belongs to the next box.
		q.stats = append(q.stats, q.cur)
		if q.maxBoxes > 0 && int64(len(q.stats)) >= q.maxBoxes {
			//lint:ignore hotpath error path: the box guard tripping ends the run
			q.err = fmt.Errorf("paging: run exceeded %d boxes", q.maxBoxes)
			q.started = false
			return
		}
		q.openBox()
		if q.err != nil {
			return
		}
	}
	q.policy.Access(block)
	q.cur.IOs++
	q.cur.Refs++
	q.refs++
}

// AccessRange serves blocks [lo, lo+count) in order.
func (q *PolicyStream) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		q.Access(lo + i)
	}
}

// EndLeaf credits a base-case completion to the box that served the most
// recent access — the same idempotent convention as SquareStream.EndLeaf.
func (q *PolicyStream) EndLeaf() {
	if q.err != nil {
		return
	}
	if q.refs == 0 {
		panic("paging: EndLeaf before any access")
	}
	if q.markedAt == q.refs {
		return
	}
	q.markedAt = q.refs
	q.cur.Leaves++
}

// Stopped reports whether the stream has errored, so stopper-aware replays
// stop feeding a stream that discards everything anyway.
func (q *PolicyStream) Stopped() bool { return q.err != nil }

// Finish closes the final (typically partial) box and returns the per-box
// statistics, or the first error the stream hit. An untouched stream
// returns (nil, nil), matching SquareStream.
func (q *PolicyStream) Finish() ([]BoxStat, error) {
	if q.err != nil {
		return q.stats, q.err
	}
	if !q.started {
		return nil, nil
	}
	q.started = false
	q.stats = append(q.stats, q.cur)
	return q.stats, nil
}

var (
	_ trace.Sink    = (*PolicyStream)(nil)
	_ trace.Stopper = (*PolicyStream)(nil)
)

// optMaxRefs is the most references the opt replay materializes — the
// ceiling regular.SyntheticTrace enforces.
const optMaxRefs = int64(1) << 28

// Replay runs a generated stream under the box profile src by replay name
// (ReplayNames) and returns the per-box ledger. emit must produce the
// identical reference sequence on every call; a materialized trace passes
// tr.Emit. totalRefs is the stream length, which opt checks against its
// materialization ceiling; maxBlock is its largest block ID (-1 if
// unknown), used to pre-size state. maxBoxes guards against pathological
// stalls (0 = unbounded).
//
//   - A registered kernel streams through PolicyStream.
//   - "square" streams through SquareStream, consuming src directly.
//   - "opt" needs the future, so it materializes the stream (refusing more
//     than 2^28 references before building anything) and runs Belady's
//     farthest-in-future choice under the profile.
//
// Unknown names error with every accepted name listed. This is the one
// dispatch over ReplayNames; PolicyRun and the adaptivity and mmtrace
// replays all go through it.
func Replay(name string, emit func(trace.Sink) error, totalRefs, maxBlock int64, src profile.Source, maxBoxes int64) ([]BoxStat, error) {
	switch name {
	case SquareReplayName:
		return replayInto(NewSquareStream(src, maxBoxes), emit, maxBlock)
	case OPTReplayName:
		if totalRefs > optMaxRefs {
			return nil, fmt.Errorf("paging: opt replay of %d references is too large to materialize (ceiling %d)", totalRefs, optMaxRefs)
		}
		b := &trace.Builder{}
		if err := emit(b); err != nil {
			return nil, err
		}
		return optRunBoxes(b.Build(), src, maxBoxes)
	}
	p, err := NewReplacementPolicy(name, 1)
	if err != nil {
		return nil, fmt.Errorf("paging: unknown replay policy %q (have %v)", name, ReplayNames())
	}
	return replayInto(NewPolicyStream(p, src, maxBoxes), emit, maxBlock)
}

// boxStream is the shared shape of SquareStream and PolicyStream.
type boxStream interface {
	trace.Sink
	Reserve(maxBlock int64)
	Finish() ([]BoxStat, error)
}

// replayInto emits the stream into q and closes its ledger.
func replayInto(q boxStream, emit func(trace.Sink) error, maxBlock int64) ([]BoxStat, error) {
	if maxBlock >= 0 {
		q.Reserve(maxBlock)
	}
	if err := emit(q); err != nil {
		return nil, err
	}
	return q.Finish()
}

// PolicyRun replays a materialized trace under the box profile src by
// replay name; see Replay.
func PolicyRun(name string, tr *trace.Trace, src profile.Source, maxBoxes int64) ([]BoxStat, error) {
	return Replay(name, tr.Emit, int64(tr.Len()), tr.MaxBlock(), src, maxBoxes)
}

// RunPolicyFixed replays tr at a fixed capacity by name — a registered
// kernel, or "opt" for Belady's baseline — and returns the miss count.
// This is the DAM-model counterpart of Replay, used by the DAM-validation
// and smoothness experiments. Registry kernels run a bare access loop, the
// cheapest fixed-capacity replay there is; "opt" is the box replay at a
// constant profile, whose I/Os are exactly fixed-capacity OPT's misses.
func RunPolicyFixed(name string, tr *trace.Trace, capacity int64) (int64, error) {
	if name == OPTReplayName {
		if capacity < 1 {
			return 0, fmt.Errorf("paging: OPT capacity %d < 1", capacity)
		}
		stats, err := optRunBoxes(tr, profile.FuncSource(func() int64 { return capacity }), 0)
		return TotalIOs(stats), err
	}
	p, err := NewReplacementPolicy(name, capacity)
	if err != nil {
		return 0, err
	}
	p.Reserve(tr.MaxBlock())
	for i := 0; i < tr.Len(); i++ {
		p.Access(tr.Block(i))
	}
	return p.Misses(), nil
}
