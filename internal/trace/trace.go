// Package trace represents block-level memory reference traces.
//
// A trace is the sequence of block references an algorithm issues. Traces
// are the ground-truth layer of the repository: the symbolic executor in
// internal/regular reasons about recursion structure directly, while traces
// generated from real algorithm implementations (internal/matrix,
// internal/dp) or from the synthetic canonical generator are replayed
// against the paging substrate (internal/paging) to cross-validate the
// model.
//
// Besides raw block IDs, a trace records which accesses complete a base
// case of the generating algorithm's recursion ("leaf markers"), because
// the paper's progress measure counts base cases completed within each
// memory-profile box.
//
// Generators emit through the Sink interface (sink.go) and consumers take
// the emitter itself, so by default nothing is stored: the streaming
// kernels in internal/paging consume the stream as it is generated.
// Materialize is the one place an emitter is buffered into a Trace, for
// the consumers that need the whole trace at once (a randomised trace that
// must replay one draw, a trace replayed more often than it can be
// regenerated). Even OPT, which needs the future, records the stream into
// its own compact sink rather than a Trace.
package trace

import (
	"fmt"
)

// Trace is an immutable sequence of block references with leaf-completion
// markers. Markers are stored as a packed bitset — one bit per access —
// so the materialized path costs 8 bytes + 1 bit per reference rather
// than 8 + 8.
type Trace struct {
	blocks   []int64
	leafBits []uint64
	maxBlock int64
	leaves   int64
}

// Builder accumulates a trace. The zero value is ready to use.
type Builder struct {
	blocks   []int64
	leafBits []uint64
	maxBlock int64
	leaves   int64
}

// Access appends a reference to block (which must be >= 0).
func (b *Builder) Access(block int64) {
	if block < 0 {
		panic(fmt.Sprintf("trace: negative block %d", block))
	}
	if len(b.blocks)&63 == 0 {
		b.leafBits = append(b.leafBits, 0)
	}
	b.blocks = append(b.blocks, block)
	if block > b.maxBlock {
		b.maxBlock = block
	}
}

// AccessRange appends references to blocks [lo, lo+count).
func (b *Builder) AccessRange(lo, count int64) {
	for i := int64(0); i < count; i++ {
		b.Access(lo + i)
	}
}

// EndLeaf marks the most recent access as completing a base case. It
// panics if no access has been made — a structural bug in the generator.
func (b *Builder) EndLeaf() {
	if len(b.blocks) == 0 {
		panic("trace: EndLeaf before any access")
	}
	i := len(b.blocks) - 1
	if b.leafBits[i>>6]&(1<<(uint(i)&63)) == 0 {
		b.leafBits[i>>6] |= 1 << (uint(i) & 63)
		b.leaves++
	}
}

// Materialize runs emit into a Builder and returns the trace it recorded:
// the single bridge from a streaming generator to a materialized Trace. On
// error the partial trace is discarded. Materialize sets no size ceiling;
// callers that accept unbounded inputs check one before calling it.
func Materialize(emit func(Sink) error) (*Trace, error) {
	b := &Builder{}
	if err := emit(b); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// Len reports the number of accesses recorded so far.
func (b *Builder) Len() int { return len(b.blocks) }

// Build freezes the builder into a Trace. The builder must not be used
// afterwards.
func (b *Builder) Build() *Trace {
	t := &Trace{blocks: b.blocks, leafBits: b.leafBits, maxBlock: b.maxBlock, leaves: b.leaves}
	b.blocks, b.leafBits = nil, nil
	return t
}

// Len returns the number of references.
func (t *Trace) Len() int { return len(t.blocks) }

// Block returns the block referenced at position i.
func (t *Trace) Block(i int) int64 { return t.blocks[i] }

// leafAt reads the packed leaf bit for position i without the bounds
// checks EndsLeaf inherits from the blocks slice access.
func (t *Trace) leafAt(i int) bool {
	return t.leafBits[i>>6]&(1<<(uint(i)&63)) != 0
}

// EndsLeaf reports whether the access at position i completes a base case.
// It panics on an out-of-range position, like a slice index, and is cheap
// enough to inline into per-access replay loops.
func (t *Trace) EndsLeaf(i int) bool {
	_ = t.blocks[i] // bounds check against the trace length
	return t.leafAt(i)
}

// MaxBlock returns the largest block ID referenced (0 for empty traces).
func (t *Trace) MaxBlock() int64 { return t.maxBlock }

// Leaves returns the number of base cases the trace completes.
func (t *Trace) Leaves() int64 { return t.leaves }

// DistinctBlocks counts the number of distinct blocks referenced.
func (t *Trace) DistinctBlocks() int64 {
	if len(t.blocks) == 0 {
		return 0
	}
	seen := make([]bool, t.maxBlock+1)
	var n int64
	for _, blk := range t.blocks {
		if !seen[blk] {
			seen[blk] = true
			n++
		}
	}
	return n
}

// String summarises the trace.
func (t *Trace) String() string {
	return fmt.Sprintf("Trace{refs=%d, leaves=%d, maxBlock=%d}", t.Len(), t.leaves, t.maxBlock)
}
