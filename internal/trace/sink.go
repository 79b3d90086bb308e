package trace

// Sink consumes a block-reference stream as it is generated. It is the
// streaming half of the trace pipeline: algorithm generators
// (internal/matrix, internal/dp, internal/gep, internal/sorting,
// internal/regular) emit into a Sink, and the consumer decides whether to
// replay online against a cache (internal/paging's streaming kernels),
// just count, or materialize (Materialize, through a Builder). Streaming
// keeps memory bounded by the consumer's state — O(distinct blocks) for the
// paging kernels — instead of the Θ(T(n)) references a materialized
// Trace costs, which is what caps problem sizes on the materialized path.
//
// The contract mirrors Builder exactly (Builder is the canonical Sink):
// Access references one block, AccessRange references blocks
// [lo, lo+count) in ascending order, and EndLeaf marks the most recent
// access as completing a base case. Generators must emit the identical
// access sequence whichever Sink they are given; that equivalence is what
// keeps streaming replays byte-identical to materialized ones.
type Sink interface {
	// Access appends a reference to block (>= 0).
	Access(block int64)
	// AccessRange appends references to blocks [lo, lo+count).
	AccessRange(lo, count int64)
	// EndLeaf marks the most recent access as completing a base case.
	EndLeaf()
}

// Builder is the materializing Sink.
var _ Sink = (*Builder)(nil)

// OffsetSink forwards every access to S with block IDs shifted by Shift.
// It is how streaming consumers relocate repetitions of a workload to
// fresh address ranges (paging.Completions) without materializing
// the repeated trace.
type OffsetSink struct {
	S     Sink
	Shift int64
}

// Access forwards block+Shift to the underlying sink.
//
//lint:hotpath
func (o OffsetSink) Access(block int64) { o.S.Access(block + o.Shift) }

// AccessRange forwards the shifted range to the underlying sink.
//
//lint:hotpath
func (o OffsetSink) AccessRange(lo, count int64) { o.S.AccessRange(lo+o.Shift, count) }

// EndLeaf forwards the leaf marker unchanged.
//
//lint:hotpath
func (o OffsetSink) EndLeaf() { o.S.EndLeaf() }

// Stopped delegates to the wrapped sink's Stopper surface (false when the
// wrapped sink has none), so generators handed a shifted sink still see the
// underlying consumer's early-stop signal.
func (o OffsetSink) Stopped() bool {
	if st, ok := o.S.(Stopper); ok {
		return st.Stopped()
	}
	return false
}

// CountingSink tallies the stream without storing it: reference and leaf
// counts plus the largest block seen. A full-size workload can be
// measured in O(1) memory (mmtrace -stats uses it).
type CountingSink struct {
	Refs     int64
	Leaves   int64
	MaxBlock int64
	markedAt int64 // Refs value at the last EndLeaf, for idempotency
}

// Access counts one reference.
//
//lint:hotpath
func (c *CountingSink) Access(block int64) {
	c.Refs++
	if block > c.MaxBlock {
		c.MaxBlock = block
	}
}

// AccessRange counts count references ending at lo+count-1.
//
//lint:hotpath
func (c *CountingSink) AccessRange(lo, count int64) {
	if count <= 0 {
		return
	}
	c.Refs += count
	if hi := lo + count - 1; hi > c.MaxBlock {
		c.MaxBlock = hi
	}
}

// EndLeaf counts one base case. Like Builder it panics before any access
// and is idempotent per access, so generators behave identically on every
// sink.
//
//lint:hotpath
func (c *CountingSink) EndLeaf() {
	if c.Refs == 0 {
		panic("trace: EndLeaf before any access")
	}
	if c.markedAt == c.Refs {
		return
	}
	c.markedAt = c.Refs
	c.Leaves++
}

// Stopper is the optional early-stop half of a Sink. A sink that has
// consumed all the stream it will ever serve (a finite square sequence that
// ran out of boxes, a windowed shard that passed its upper bound, a stream
// that hit an error) reports Stopped() == true, and the replay loops below
// halt instead of pushing the rest of the stream into a sink that ignores
// it. Generators may honor it too (regular.EmitSynthetic does); a sink
// without the method is simply replayed to the end, exactly as before.
type Stopper interface {
	// Stopped reports that every further emission would be ignored.
	Stopped() bool
}

// stopperOf extracts the optional Stopper surface of s, unwrapping the
// OffsetSink adapter so that shifted replays still stop when the
// underlying consumer is done.
func stopperOf(s Sink) Stopper {
	for {
		if o, ok := s.(OffsetSink); ok {
			s = o.S
			continue
		}
		st, _ := s.(Stopper)
		return st
	}
}

// Replay emits a materialized trace into s, reproducing the exact access
// and leaf sequence the trace was built from. It bridges the two halves of
// the pipeline: anything materialized can feed any streaming consumer. If s
// implements Stopper, the replay halts as soon as Stopped reports true.
//
//lint:hotpath
func Replay(tr *Trace, s Sink) {
	ReplayRange(tr, s, 0, tr.Len())
}

// Emit replays t into s: the materialized trace in the emitter shape
// generators have (func(Sink) error), so anything that consumes a
// generator consumes a trace as t.Emit. It never fails.
func (t *Trace) Emit(s Sink) error {
	Replay(t, s)
	return nil
}

// ReplayRange emits the subsequence [lo, hi) of tr into s. Leaf markers
// inside the range are preserved. It panics on an out-of-range window (a
// caller bug, matching the slice convention). If s implements Stopper, the
// replay halts at the first index where Stopped reports true, so a sink
// that is done consuming (a square replay past its box limit, a windowed
// shard) costs O(served) rather than O(trace).
//
//lint:hotpath
func ReplayRange(tr *Trace, s Sink, lo, hi int) {
	if lo < 0 || hi < lo || hi > tr.Len() {
		panic("trace: ReplayRange window out of range")
	}
	if st := stopperOf(s); st != nil {
		for i := lo; i < hi; i++ {
			if st.Stopped() {
				return
			}
			s.Access(tr.blocks[i])
			if tr.leafAt(i) {
				s.EndLeaf()
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		s.Access(tr.blocks[i])
		if tr.leafAt(i) {
			s.EndLeaf()
		}
	}
}

// WindowSink forwards the subsequence [Lo, Hi) of a stream — counted in
// global reference indices — to S, discarding everything outside it. It is
// how a shard of paging.SquareEmitParallel re-streams only its slice of a
// generator: references before Lo are skipped (a whole AccessRange
// outside the window costs O(1)), references from Hi on report Stopped so
// stopper-aware replays and generators cut the tail off entirely. No
// production replay shards; the sharded replay stays for the benchmark's
// shard-speedup probe. Leaf markers are
// forwarded only when the access they mark lies inside the window, which
// preserves per-box leaf attribution across shard boundaries.
//
// Hi < 0 means an unbounded window: the sink forwards everything from Lo
// on and stops only when S itself stops.
type WindowSink struct {
	S      Sink
	Lo, Hi int64
	n      int64 // references seen so far (global index of the next one)
}

// NewWindowSink returns a window over [lo, hi); hi < 0 is unbounded.
func NewWindowSink(s Sink, lo, hi int64) *WindowSink {
	return &WindowSink{S: s, Lo: lo, Hi: hi}
}

// Seen returns how many stream references have been consumed (forwarded or
// skipped) so far.
func (w *WindowSink) Seen() int64 { return w.n }

// Access forwards the reference when its global index is inside [Lo, Hi).
//
//lint:hotpath
func (w *WindowSink) Access(block int64) {
	i := w.n
	w.n++
	if i < w.Lo || (w.Hi >= 0 && i >= w.Hi) {
		return
	}
	w.S.Access(block)
}

// AccessRange forwards the overlap of the range with the window; a range
// entirely outside it is skipped in O(1).
//
//lint:hotpath
func (w *WindowSink) AccessRange(lo, count int64) {
	if count <= 0 {
		return
	}
	first := w.n
	w.n += count
	// Clip [first, first+count) to [Lo, Hi).
	skip := int64(0)
	if first < w.Lo {
		skip = w.Lo - first
	}
	if skip >= count {
		return
	}
	keep := count - skip
	if w.Hi >= 0 {
		if first+skip >= w.Hi {
			return
		}
		if first+skip+keep > w.Hi {
			keep = w.Hi - (first + skip)
		}
	}
	w.S.AccessRange(lo+skip, keep)
}

// EndLeaf forwards the marker when the most recent access was forwarded.
//
//lint:hotpath
func (w *WindowSink) EndLeaf() {
	i := w.n - 1
	if w.n == 0 || i < w.Lo || (w.Hi >= 0 && i >= w.Hi) {
		return
	}
	w.S.EndLeaf()
}

// Stopped reports true once the window's upper bound has been passed (or
// the inner sink itself stopped), so the producing replay or generator can
// stop emitting the tail.
func (w *WindowSink) Stopped() bool {
	if w.Hi >= 0 && w.n >= w.Hi {
		return true
	}
	if st, ok := w.S.(Stopper); ok {
		return st.Stopped()
	}
	return false
}

var (
	_ Sink    = (*WindowSink)(nil)
	_ Stopper = (*WindowSink)(nil)
)
