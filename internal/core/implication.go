package core

import (
	"simgen/internal/network"
)

// ImplicationStrategy selects how aggressively SimGen implies values.
type ImplicationStrategy int

const (
	// ImplSimple applies Definition 2.2: a node's values are propagated
	// only when exactly one truth-table row is consistent with the current
	// assignment.
	ImplSimple ImplicationStrategy = iota
	// ImplAdvanced additionally applies Definition 4.1: when several rows
	// are consistent but agree on the output and/or on some inputs, the
	// agreed values are propagated.
	ImplAdvanced
)

func (s ImplicationStrategy) String() string {
	if s == ImplAdvanced {
		return "AI"
	}
	return "SI"
}

// engine is the shared propagation machinery of SimGen and the reverse
// simulation baseline.
type engine struct {
	g    *graph
	rows *rowCache
	vals *assignment

	queue  []network.NodeID
	queued []bool

	// candIdx and prios are chooseRow's scratch, reused across decisions.
	candIdx []int
	prios   []float64

	// implications counts row applications performed by propagate — the
	// unit of implication work reported through GenStats.
	implications int64
}

func newEngine(net *network.Network) *engine {
	g := newGraph(net)
	return &engine{
		g:      g,
		rows:   newRowCache(net),
		vals:   newAssignmentOn(g),
		queued: make([]bool, net.NumNodes()),
	}
}

func (e *engine) enqueue(id network.NodeID) {
	if !e.queued[id] {
		e.queued[id] = true
		e.queue = append(e.queue, id)
	}
}

// assignAndWake sets a node value and schedules every node whose row
// matching could change: the node itself (its inputs may now be implied
// backward) and its fanouts (their input values changed).
func (e *engine) assignAndWake(id network.NodeID, v bool) {
	e.vals.set(id, v)
	e.enqueue(id)
	g := e.g
	for _, fo := range g.fanouts[g.fanoutStart[id]:g.fanoutStart[id+1]] {
		e.enqueue(fo)
	}
}

// propagate runs implications to fixpoint starting from the queued nodes.
// It returns false on conflict (a node whose assignment matches no row).
// Implications flow both backward (output to inputs) and forward (inputs
// to output), independently of node levels, per Definition 2.2.
//
// One pass over the rows of the node's output polarity (all rows when the
// output is unassigned) counts the consistent rows and folds their
// agreement: whether they share the output value, and the input positions
// on which they all care with the same value. With one consistent row the
// agreement is that row, so simple implication applies it; advanced
// implication (Definition 4.1) applies the agreement of several rows —
// positions where rows differ, including a don't-care versus a value,
// remain unassigned.
func (e *engine) propagate(strategy ImplicationStrategy) bool {
	for len(e.queue) > 0 {
		id := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.queued[id] = false

		if e.g.kind[id] == network.KindPI {
			continue
		}
		st := e.vals.state(id)
		rs := e.rows.of(id)
		lo, hi := rs.span(st.out)

		count := 0
		outAgree := true
		var outVal bool
		var agreeMask, agreeVal uint32
		rows := rs.rows[lo:hi]
		for i := range rows {
			r := &rows[i]
			if !r.cube.ConsistentWith(st.inMask, st.inVal) {
				continue
			}
			count++
			if count == 1 {
				outVal = r.out
				agreeMask, agreeVal = r.cube.Mask, r.cube.Val
				continue
			}
			if r.out != outVal {
				outAgree = false
			}
			agreeMask &= r.cube.Mask
			agreeMask &^= agreeVal ^ r.cube.Val
			agreeVal &= agreeMask
			if strategy != ImplAdvanced ||
				agreeMask&^st.inMask == 0 && (!outAgree || st.out != unassigned) {
				// Further rows can only shrink the agreement: nothing
				// will be implied here.
				break
			}
		}
		if count == 0 {
			e.clearQueue()
			return false
		}
		if count > 1 && strategy != ImplAdvanced {
			continue
		}
		e.implications++
		e.apply(id, st, outAgree, outVal, agreeMask, agreeVal)
	}
	return true
}

// apply assigns the node's output to out when setOut holds and it is
// unassigned, then every input position of mask that is not yet assigned
// to its value in val. Consistency with the state was already checked.
func (e *engine) apply(id network.NodeID, st nodeState, setOut, out bool, mask, val uint32) {
	if setOut && st.out == unassigned {
		e.assignAndWake(id, out)
	}
	mask &^= st.inMask
	if mask == 0 {
		return
	}
	for i, f := range e.g.faninsOf(id) {
		bit := uint32(1) << uint(i)
		if mask&bit == 0 || e.vals.assigned(f) {
			// A duplicate fanin position may have been assigned by an
			// earlier position of this same application.
			continue
		}
		e.assignAndWake(f, val&bit != 0)
	}
}

func (e *engine) clearQueue() {
	for _, id := range e.queue {
		e.queued[id] = false
	}
	e.queue = e.queue[:0]
}
