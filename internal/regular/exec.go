package regular

import (
	"fmt"
	"math"
)

// ScanPolicy decides where a problem's linear scan is performed within its
// recursion: the scan of the problem identified by node (see NodeChild for
// the numbering) and size runs after the returned number of children, a
// value in [0, a] — 0 places the scan up front, a at the end (the canonical
// placement). Definition 2 allows all of these: "parts of the scan may be
// performed before, between, and after recursive calls". For scans split
// into several pieces, see SetSpreadScans.
//
// The policy must be a pure function of (node, size): the executor
// consults it several times per problem (once per segment boundary), so a
// stateful policy would see an unspecified call sequence.
//
// A nil policy means canonical end-of-problem scans.
type ScanPolicy func(node, size int64) int64

// NodeRoot is the node ID of the root problem.
const NodeRoot int64 = 1

// NodeChild returns the node ID of the i-th child (1-based, i in [1, a]) of
// node under the a-ary heap numbering used by the executor and by aligned
// profile constructions.
func NodeChild(node, a, i int64) int64 {
	return a*(node-1) + i + 1
}

// frame is one level of the execution stack. The stack's frames, root
// outwards, are the chain of in-progress problems: frame i+1 is the child
// of frame i currently executing, and childrenDone counts frame i's
// children fully completed before it. A frame's problem has size b^level,
// so the frame at stack index i has level k-i (k = log_b n).
//
// A frame's scan is divided into segments by the executor's layout (one
// contiguous segment at a policy-chosen slot by default; a piece after
// every child with spread scans). The innermost (top) frame encodes the
// current position:
//   - segRemaining > 0: execution is inside the scan segment at slot
//     childrenDone;
//   - otherwise childrenDone < A: execution sits at the *start* of the
//     frame's next child — and therefore also at the start of the chain of
//     descendants whose execution begins without an intervening scan
//     segment.
type frame struct {
	node         int64
	level        int
	childrenDone int64
	segRemaining int64 // accesses left in the current scan segment
	scanLeft     int64 // scan accesses not yet performed across all segments
}

// maxLevels bounds the per-level tables: b >= 2 and n <= MaxInt64 give
// k = log_b n <= 62, so levels 0..k fit.
const maxLevels = 64

// Exec symbolically executes the canonical (a,b,c)-regular algorithm on a
// problem of n blocks against a stream of boxes, under the simplified
// caching model described in the package comment. It never materialises the
// recursion tree: state is a stack of at most log_b n + 1 frames.
//
// Everything Step needs about a level is tabled once by NewExec — the
// problem size b^ℓ, its leaf count a^ℓ and its scan length — so a box costs
// comparisons and table reads, with no division and no math.Pow.
//
// Exec is not safe for concurrent use.
type Exec struct {
	spec   Spec
	n      int64
	k      int // log_b n, the root's level
	policy ScanPolicy
	// pow[ℓ] = b^ℓ, leaves[ℓ] = a^ℓ and scan[ℓ] = ScanLen(b^ℓ), for
	// ℓ <= k; entries above k are unused.
	pow, leaves, scan [maxLevels]int64
	// spreadScans splits every problem's scan into a equal pieces, one
	// performed after each child (remainder after the last) — the first
	// step of the scan-hiding transformation of Lincoln et al. [40], used
	// by ablation A6. Mutually exclusive with a non-nil policy.
	spreadScans bool
	// skipRootScan stops execution when the root's last child completes,
	// before the root scan. This measures the paper's f'(n) — the expected
	// number of boxes to complete a problem excluding its final scan. It is
	// only meaningful with canonical scan placement and is rejected
	// otherwise.
	skipRootScan bool
	// strictScans changes the in-scan rule: a box that reaches the end of a
	// scan segment stops there instead of completing the enclosing problem
	// of its own size. The default (lax) rule is the paper's Section-4
	// model and is budget-exact for canonical end-of-problem scans, where
	// "the rest of the problem" after the scan is nothing, and ancestor
	// completion is covered by the ancestor's working set. With mid-problem
	// scan placements, lax over-credits boxes whose scan's blocks are
	// disjoint from the blocks of the children that follow (MM-Scan's merge
	// scan writes output quadrants the later products do not reuse);
	// strictScans models those algorithms and is what the
	// box-order-perturbation worst-case witness requires.
	strictScans bool

	stack      []frame // capacity k+1, allocated once: Step never grows it
	done       bool
	leavesDone int64 // total base cases completed
	boxesUsed  int64 // boxes consumed (Step calls while running)
}

// NewExec validates the problem size and returns a fresh executor with
// canonical (end-of-problem) scan placement, positioned at the start of the
// root problem.
func NewExec(spec Spec, n int64) (*Exec, error) {
	return NewExecWithPolicy(spec, n, nil)
}

// NewExecWithPolicy is NewExec with an explicit scan-placement policy.
func NewExecWithPolicy(spec Spec, n int64, policy ScanPolicy) (*Exec, error) {
	if _, err := NewSpec(spec.A, spec.B, spec.C); err != nil {
		return nil, err
	}
	if !spec.ValidSize(n) {
		return nil, fmt.Errorf("regular: problem size %d is not a power of b = %d", n, spec.B)
	}
	// Guard leaf-count overflow: a^k must fit comfortably in int64 (node
	// IDs are bounded by roughly the leaf count as well).
	k := spec.Levels(n)
	if float64(k)*math.Log(float64(spec.A)) > 62*math.Log(2) {
		return nil, fmt.Errorf("regular: problem size %d has too many leaves for int64 accounting", n)
	}
	e := &Exec{spec: spec, n: n, k: k, policy: policy}
	e.pow[0], e.leaves[0] = 1, 1
	for l := 1; l <= e.k; l++ {
		e.pow[l] = e.pow[l-1] * spec.B
		e.leaves[l] = e.leaves[l-1] * spec.A
	}
	e.scan = scanLens(spec, e.k)
	e.stack = make([]frame, 0, e.k+1)
	e.Reset()
	return e, nil
}

// segmentAt returns the length of the scan segment of a level-`level`
// problem at slot (= number of children completed so far). Slots run 0..a;
// the canonical layout puts the whole scan at the policy slot (default a),
// the spread layout 1/a of it after each child with the remainder after
// the last.
func (e *Exec) segmentAt(node int64, level int, slot int64) int64 {
	if e.skipRootScan && node == NodeRoot {
		return 0 // the f' measurement: the root performs no scan
	}
	total := e.scan[level]
	if total == 0 {
		return 0
	}
	if e.spreadScans {
		if slot == 0 {
			return 0
		}
		part := total / e.spec.A
		if slot == e.spec.A {
			return part + total%e.spec.A
		}
		return part
	}
	at := e.spec.A
	if e.policy != nil {
		at = e.policy(node, e.pow[level])
		if at < 0 || at > e.spec.A {
			//lint:ignore hotpath error path: a policy out of range is a programming error and ends the run
			panic(fmt.Sprintf("regular: scan policy returned %d outside [0,%d] for node %d", at, e.spec.A, node))
		}
	}
	if slot == at {
		return total
	}
	return 0
}

// push starts a frame at the start of its problem, entering the slot-0
// scan segment if the layout has one. The stack's capacity is k+1, the
// deepest chain there is, so push never reallocates.
func (e *Exec) push(node int64, level int) {
	i := len(e.stack)
	e.stack = e.stack[:i+1]
	e.stack[i] = frame{node: node, level: level, scanLeft: e.scan[level],
		segRemaining: e.segmentAt(node, level, 0)}
}

// Reset returns the executor to the start of the root problem.
func (e *Exec) Reset() {
	e.stack = e.stack[:0]
	e.done = false
	e.leavesDone = 0
	e.boxesUsed = 0
	// At n = 1 the root is a single base case with no scan; Step completes
	// it without reading the stack.
	e.push(NodeRoot, e.k)
	if e.skipRootScan {
		root := &e.stack[0]
		root.scanLeft = 0
		root.segRemaining = 0
	}
	e.normalise()
}

// SetSkipRootScan configures the executor to finish when the root's final
// subproblem completes, omitting the root scan (the f' measurement). Must
// be called before the first Step, and requires canonical scan placement.
func (e *Exec) SetSkipRootScan(skip bool) error {
	if e.boxesUsed != 0 {
		return fmt.Errorf("regular: SetSkipRootScan after execution started")
	}
	if skip && (e.policy != nil || e.spreadScans) {
		return fmt.Errorf("regular: skip-root-scan requires canonical scan placement")
	}
	e.skipRootScan = skip
	e.Reset()
	return nil
}

// SetStrictScans switches the in-scan rule (see the strictScans field for
// the model it captures). Must be called before the first Step.
func (e *Exec) SetStrictScans(strict bool) error {
	if e.boxesUsed != 0 {
		return fmt.Errorf("regular: SetStrictScans after execution started")
	}
	e.strictScans = strict
	return nil
}

// SetSpreadScans switches every problem's scan to the per-child spread
// layout (see the spreadScans field). Must be called before the first Step
// and is mutually exclusive with a scan policy.
func (e *Exec) SetSpreadScans(spread bool) error {
	if e.boxesUsed != 0 {
		return fmt.Errorf("regular: SetSpreadScans after execution started")
	}
	if spread && e.policy != nil {
		return fmt.Errorf("regular: spread scans are mutually exclusive with a scan policy")
	}
	if spread && e.skipRootScan {
		return fmt.Errorf("regular: spread scans are incompatible with skip-root-scan")
	}
	e.spreadScans = spread
	e.Reset()
	return nil
}

// Spec returns the (a,b,c) specification the executor runs.
func (e *Exec) Spec() Spec { return e.spec }

// N returns the problem size in blocks.
func (e *Exec) N() int64 { return e.n }

// Done reports whether the root problem has completed.
func (e *Exec) Done() bool { return e.done }

// LeavesDone returns the number of base cases completed so far.
func (e *Exec) LeavesDone() int64 { return e.leavesDone }

// BoxesUsed returns the number of boxes consumed so far.
func (e *Exec) BoxesUsed() int64 { return e.boxesUsed }

// TotalLeaves returns the number of base cases in the whole problem.
func (e *Exec) TotalLeaves() int64 { return e.leaves[e.k] }

// Step feeds one box of the given size to the execution and returns the
// progress the box makes (base cases completed at least partly within it).
// Steps after completion consume nothing and return 0.
//
//lint:hotpath
func (e *Exec) Step(box int64) int64 {
	if e.done {
		return 0
	}
	if box < 1 {
		// A degenerate box serves nothing; profiles are validated
		// elsewhere, so this is belt-and-braces.
		return 0
	}
	e.boxesUsed++

	// Degenerate single-leaf problem.
	if e.n == 1 {
		e.leavesDone = 1
		e.done = true
		return 1
	}

	target := e.levelOf(box)
	for {
		top := &e.stack[len(e.stack)-1]
		if top.segRemaining > 0 {
			if !e.strictScans && target >= top.level {
				// The scan's position lies inside the ancestor problems of
				// levels top.level, ..., k; the box completes the one at
				// its target level.
				return e.completeWithProgress(e.frameIndexOfLevel(target))
			}
			// The box begins in a scan segment of a problem larger than
			// itself: it advances min(box, remaining segment) accesses and
			// completes no base cases.
			adv := box
			if adv > top.segRemaining {
				adv = top.segRemaining
			}
			top.segRemaining -= adv
			top.scanLeft -= adv
			if top.segRemaining == 0 {
				e.normalise()
			}
			return 0
		}

		// At the start of the next child of the top frame.
		child := top.level - 1
		switch {
		case target > child:
			// The position lies strictly inside the ancestor problems of
			// levels top.level, ..., k. Complete the one at the target level.
			return e.completeWithProgress(e.frameIndexOfLevel(target))
		case target == child:
			// The box completes the child as a unit.
			progress := e.leaves[child]
			e.leavesDone += progress
			top.childrenDone++
			top.segRemaining = e.segmentAt(top.node, top.level, top.childrenDone)
			e.normalise()
			return progress
		default:
			// target < child (hence child > 0): descend into the child and
			// re-examine. The child's execution may begin with its own scan
			// segment (upfront placement) or with its first grandchild; the
			// loop handles both.
			e.push(NodeChild(top.node, e.spec.A, top.childrenDone+1), child)
		}
	}
}

// levelOf returns the box's target level: the level of min(FloorPow(box),
// n), found by comparing against the power table.
func (e *Exec) levelOf(box int64) int {
	l := 0
	for l < e.k && e.pow[l+1] <= box {
		l++
	}
	return l
}

// completeWithProgress completes the subtree rooted at stack index idx
// (including any remaining scan segments inside it) and returns the base
// cases that completion finishes.
func (e *Exec) completeWithProgress(idx int) int64 {
	progress := e.remainingLeaves(idx)
	e.leavesDone += progress
	if idx == 0 {
		e.done = true
		e.stack = e.stack[:1]
		return progress
	}
	e.stack = e.stack[:idx]
	top := &e.stack[idx-1]
	top.childrenDone++
	top.segRemaining = e.segmentAt(top.node, top.level, top.childrenDone)
	e.normalise()
	return progress
}

// frameIndexOfLevel returns the index of the stack frame at the given
// level. Levels on the stack are k, k-1, ..., top.level, so for any target
// level in [top.level, k] the frame exists.
func (e *Exec) frameIndexOfLevel(level int) int {
	depth := e.k - level
	if depth < 0 || depth >= len(e.stack) {
		//lint:ignore hotpath error path: a missing frame is an executor bug and ends the run
		panic(fmt.Sprintf("regular: no frame of size %d on stack (depth %d, stack %d)", e.pow[level], depth, len(e.stack)))
	}
	return depth
}

// remainingLeaves counts the base cases not yet completed in the subtree
// rooted at stack index idx.
func (e *Exec) remainingLeaves(idx int) int64 {
	var rem int64
	for i := idx; i < len(e.stack); i++ {
		f := e.stack[i]
		pending := e.spec.A - f.childrenDone
		if i < len(e.stack)-1 {
			pending-- // the active child is accounted for by deeper frames
		}
		rem += pending * e.leaves[f.level-1]
	}
	return rem
}

// normalise restores the position invariant after progress: it completes
// frames whose children and scan are all done (propagating to parents) and
// stops at a frame that is either inside a scan segment or has a next
// child to start.
func (e *Exec) normalise() {
	for {
		top := &e.stack[len(e.stack)-1]
		if top.segRemaining > 0 {
			return // position: inside a scan segment
		}
		if top.childrenDone < e.spec.A {
			return // position: start of next child
		}
		if top.scanLeft > 0 {
			// All children done but scan accesses remain with no segment
			// open: only possible if the layout is inconsistent.
			//lint:ignore hotpath error path: an inconsistent layout is an executor bug and ends the run
			panic(fmt.Sprintf("regular: frame %d finished children with %d scan accesses unplaced", top.node, top.scanLeft))
		}
		// Frame complete.
		if len(e.stack) == 1 {
			e.done = true
			return
		}
		e.stack = e.stack[:len(e.stack)-1]
		parent := &e.stack[len(e.stack)-1]
		parent.childrenDone++
		parent.segRemaining = e.segmentAt(parent.node, parent.level, parent.childrenDone)
	}
}

// Run consumes boxes from next until completion (or until maxBoxes boxes
// have been consumed, to bound adversarial stalls; 0 means no bound),
// invoking visit — if non-nil — with each box size and the progress it made.
// Using a visitor keeps multi-million-box runs allocation-free.
func (e *Exec) Run(next func() int64, maxBoxes int64, visit func(box, progress int64)) error {
	for !e.done {
		if maxBoxes > 0 && e.boxesUsed >= maxBoxes {
			return fmt.Errorf("regular: execution exceeded %d boxes", maxBoxes)
		}
		b := next()
		if b < 1 {
			return fmt.Errorf("regular: box source produced size %d", b)
		}
		p := e.Step(b)
		if visit != nil {
			visit(b, p)
		}
	}
	return nil
}
