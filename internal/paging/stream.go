package paging

import (
	"errors"
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// This file holds what every box replay shares — the box cursor and the
// ledger of the box being served — and the square-semantics consumer built
// on them: SquareStream, the per-box ledger behind Replay's "square" name,
// which also counts the references a finite box sequence serves
// (Completions, SquareRunFrom) and finds the shard cuts of the
// parallel replay (SquareEmitParallel). Generators emit straight into it
// and a materialized trace replays into it through the same methods, so
// streamed and materialized runs share one implementation and cannot
// drift — which is what keeps streamed experiment tables byte-identical
// to materialized ones.

// boxCursor draws the box sizes of one box replay from a profile source and
// enforces its maxBoxes guard. SquareStream, PolicyStream and the opt box
// replay all draw through it, so a box is validated, counted and limited
// in one place.
type boxCursor struct {
	src      profile.Source
	maxBoxes int64 // 0 = unbounded
	closed   int64 // boxes closed so far
}

// first draws and validates a box: a replay's opening box, and every later
// one once next has passed the guard.
func (c *boxCursor) first() (int64, error) {
	size := c.src.Next()
	if size < 1 {
		return 0, boxSizeError(size)
	}
	return size, nil
}

// next counts the current box closed and draws the one after it; once
// maxBoxes boxes have closed it draws nothing and reports the limit.
func (c *boxCursor) next() (int64, error) {
	c.closed++
	if c.maxBoxes > 0 && c.closed >= c.maxBoxes {
		return 0, boxLimitError(c.maxBoxes)
	}
	return c.first()
}

// boxSizeError reports a box source drawing a size below 1. The text is
// built only when read, which keeps the cursor's methods small.
type boxSizeError int64

func (e boxSizeError) Error() string {
	return fmt.Sprintf("paging: box source produced size %d", int64(e))
}

// boxLimitError reports a replay needing a box past its maxBoxes guard.
// The counts over a finite box sequence (Completions, SquareRunFrom) read
// it as the normal end of that sequence.
type boxLimitError int64

func (e boxLimitError) Error() string {
	return fmt.Sprintf("paging: run exceeded %d boxes", int64(e))
}

// boxLedger is the part of a box stream SquareStream and PolicyStream
// share: the cursor, the box being served, the fold closed boxes go to,
// and the first error. The streams' Access methods open and roll boxes;
// EndLeaf, Stopped and Finish are the ledger's.
type boxLedger struct {
	boxCursor
	fold     func(BoxStat)
	cur      BoxStat
	started  bool
	err      error
	markedAt int64 // refs at the last EndLeaf (idempotency)
	refs     int64 // total refs across all boxes, for markedAt
}

// open draws the stream's first box; false once the stream has errored.
func (l *boxLedger) open() bool {
	l.started = true
	return l.opened(l.first())
}

// opened makes a freshly drawn box current, or records the draw's error;
// false once the stream has errored. Each Access rolls a box in its own
// body (fold, then opened(next())): one more call per box through a shared
// roll method measurably slowed BenchmarkPolicyStreamSmallBoxes.
func (l *boxLedger) opened(size int64, err error) bool {
	if err != nil {
		l.err = err
		return false
	}
	l.cur = BoxStat{Size: size}
	return true
}

// EndLeaf credits a base-case completion to the box that served the most
// recent access. Idempotent per access, matching trace.Builder. Once the
// stream has errored it is a no-op: the access the marker belongs to was
// never served (Access returns before counting references on the error
// paths), so there is no box to credit — panicking here would blame the
// generator for a profile/guard error, and crediting would mutate a stale
// box. The panic is reserved for the genuine structural bug of a marker
// before any access on a healthy stream.
func (l *boxLedger) EndLeaf() {
	if l.err != nil {
		return
	}
	if l.refs == 0 {
		panic("paging: EndLeaf before any access")
	}
	if l.markedAt == l.refs {
		return
	}
	l.markedAt = l.refs
	l.cur.Leaves++
}

// Stopped reports whether the stream has errored, so stopper-aware replays
// and generators stop feeding a stream that discards everything anyway.
func (l *boxLedger) Stopped() bool { return l.err != nil }

// Finish passes the final (typically partial) box to the fold, or returns
// the first error the stream hit. An untouched stream folds nothing: an
// empty stream uses no boxes.
func (l *boxLedger) Finish() error {
	if l.err != nil {
		return l.err
	}
	if l.started {
		l.started = false
		l.fold(l.cur)
	}
	return nil
}

// SquareStream consumes a reference stream under square semantics against
// boxes drawn from a profile source. Feed it accesses (directly or via
// trace.Replay), then call Finish to close the last box. Each box is passed
// to the stream's fold as it closes, so memory is O(max block ID),
// independent of stream length and box count.
type SquareStream struct {
	boxLedger
	resident []int64 // epoch-stamped from 1: resident[b] == epoch means cached
	epoch    int64
}

// NewSquareStream returns a stream drawing box sizes from src and passing
// each box to fold as it closes; maxBoxes guards against pathological
// stalls (0 = unbounded).
func NewSquareStream(src profile.Source, maxBoxes int64, fold func(BoxStat)) *SquareStream {
	return &SquareStream{boxLedger: boxLedger{boxCursor: boxCursor{src: src, maxBoxes: maxBoxes}, fold: fold}, epoch: 1}
}

// Reserve pre-sizes the residency array for block IDs up to maxBlock.
func (q *SquareStream) Reserve(maxBlock int64) {
	q.resident = growResident(q.resident, maxBlock)
}

// Access serves one block reference under square semantics: first touch of
// a block within a box costs one I/O from the box budget; when the budget
// is exhausted a new box starts with a cleared cache.
//
//lint:hotpath
func (q *SquareStream) Access(block int64) {
	if q.err != nil {
		return
	}
	if !q.started && !q.open() {
		return
	}
	if block >= int64(len(q.resident)) {
		q.resident = growResident(q.resident, block)
	}
	if q.resident[block] != q.epoch {
		// Miss: needs an I/O from the current box's budget.
		if q.cur.IOs == q.cur.Size {
			// Budget exhausted: this reference belongs to the next box,
			// which starts with a cleared cache.
			q.fold(q.cur)
			if !q.opened(q.next()) {
				return
			}
			q.epoch++
		}
		q.resident[block] = q.epoch
		q.cur.IOs++
	}
	q.cur.Refs++
	q.refs++
}

// AccessRange serves blocks [lo, lo+count) in order, stopping at an error.
func (q *SquareStream) AccessRange(lo, count int64) {
	for i := int64(0); i < count && q.err == nil; i++ {
		q.Access(lo + i)
	}
}

// growResident extends an epoch-stamped residency array to cover block.
// Every square-semantics epoch starts at 1, so zero-filled growth means
// "not resident" without a fill pass.
func growResident(resident []int64, block int64) []int64 {
	if block < int64(len(resident)) {
		return resident
	}
	n := int64(len(resident)) * 2
	if n <= block {
		n = block + 1
	}
	//lint:ignore hotpath geometric residency growth amortises to O(1) per access and Reserve pre-sizes it away in steady state
	grown := make([]int64, n)
	copy(grown, resident)
	return grown
}

// Completions counts how many of reps back-to-back runs of a workload
// the first nBoxes boxes of src complete under square semantics. emit
// replays the workload; one trace.CountingSink pass measures its length
// and largest block ID, then each run is replayed in a fresh address range
// (run r shifted by r·(maxBlock+1): back-to-back multiplies of different
// inputs) into one SquareStream guarded at nBoxes boxes, and the count is
// the references served over the workload's length. This is the
// worst-case repetition count behind E9, A1, A4, A5 and mmtrace
// -worstcase. emit is called once to measure and then once per run until
// the boxes run out, so it must emit the same stream every time. With
// nBoxes < 1 nothing is emitted and nothing completes. On an invalid box
// the runs completed before it are returned with the error.
func Completions(emit func(trace.Sink) error, src profile.Source, nBoxes int64, reps int) (int64, error) {
	if reps < 1 {
		return 0, fmt.Errorf("paging: reps %d < 1", reps)
	}
	if nBoxes < 1 {
		return 0, nil
	}
	var c trace.CountingSink
	if err := emit(&c); err != nil {
		return 0, err
	}
	if c.Refs == 0 {
		return 0, errors.New("paging: workload emits no references")
	}
	served, err := servedEmitRepeat(emit, c.MaxBlock, src, nBoxes, reps)
	return served / c.Refs, err
}

// servedEmitRepeat counts the references served when reps runs of the
// workload emit replays (block IDs in [0, maxBlock]) are streamed, run r
// shifted to block IDs +r·(maxBlock+1), into a SquareStream guarded at
// nBoxes >= 1 boxes, whose guard tripping is the normal end of the count.
// With one run it is the No-Catch-up check's SquareRunFrom. On an invalid
// box the references served before it are returned with the error.
func servedEmitRepeat(emit func(trace.Sink) error, maxBlock int64, src profile.Source, nBoxes int64, reps int) (int64, error) {
	var served int64
	q := NewSquareStream(src, nBoxes, func(b BoxStat) { served += b.Refs })
	q.Reserve(maxBlock)
	for r := 0; r < reps && !q.Stopped(); r++ {
		var sink trace.Sink = q
		if r > 0 {
			sink = trace.OffsetSink{S: q, Shift: int64(r) * (maxBlock + 1)}
		}
		if err := emit(sink); err != nil {
			return 0, err
		}
	}
	var end boxLimitError
	if err := q.Finish(); err != nil && !errors.As(err, &end) {
		return served, err
	}
	return served, nil
}

var (
	_ trace.Sink    = (*SquareStream)(nil)
	_ trace.Stopper = (*SquareStream)(nil)
)
