package profile

import "fmt"

// OdometerSource generalises the WorstCaseSource odometer to arbitrary box
// sizes: it emits leaf boxes of size leafBox, and after the t-th leaf
// (1-based) one closing box of size closer(j) for each j = 1..v_a(t), where
// v_a(t) counts the trailing zero digits of t in base a. With leafBox = 1
// and closer(j) = b^j this is exactly the limit profile M_{a,b}; with the
// sizes of a concrete recursion's merge scans it streams that algorithm's
// Figure-1 worst-case profile without materialising it — the finite profile
// for a height-L recursion is precisely the stream's first
// (a^{L+1}-1)/(a-1) boxes, since the level-L closer after leaf a^L is the
// root box and no deeper closer appears before it.
type OdometerSource struct {
	a       int64
	leafBox int64
	closer  func(level int) int64
	leaf    int64   // leaves emitted so far
	pending []int64 // closing boxes owed after the current leaf, in order
}

// NewOdometerSource validates the shape constants and returns the stream.
func NewOdometerSource(a, leafBox int64, closer func(level int) int64) (*OdometerSource, error) {
	if a < 2 {
		return nil, fmt.Errorf("profile: odometer needs a >= 2 (a = %d never closes level boxes)", a)
	}
	if leafBox < 1 {
		return nil, fmt.Errorf("profile: odometer leaf box size %d < 1", leafBox)
	}
	return &OdometerSource{a: a, leafBox: leafBox, closer: closer}, nil
}

// Next returns the next box of the stream.
func (o *OdometerSource) Next() int64 {
	if len(o.pending) > 0 {
		box := o.pending[0]
		o.pending = o.pending[1:]
		return box
	}
	o.leaf++
	// Queue the level-closing boxes owed after this leaf.
	t := o.leaf
	j := 1
	for t%o.a == 0 {
		o.pending = append(o.pending, o.closer(j))
		t /= o.a
		j++
	}
	return o.leafBox
}
