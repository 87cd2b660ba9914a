// Package cnf encodes LUT networks into CNF for the SAT solver (Tseitin
// transformation). Each network node receives one solver variable; a LUT's
// consistency is expressed with one clause per cube of its on-set and
// off-set ISOP covers, which is complete because the two covers partition
// the input space.
package cnf

import (
	"simgen/internal/network"
	"simgen/internal/sat"
	"simgen/internal/tt"
)

// Encoder incrementally encodes fanin cones of a network into a solver.
type Encoder struct {
	Solver *sat.Solver
	net    *network.Network
	varOf  []int // solver variable per NodeID, -1 when none; grown on demand

	stack []frame   // EncodeCone's DFS stack
	lits  []sat.Lit // encodeNode's clause buffer (AddClause copies it)
}

// frame is a node on EncodeCone's DFS stack with its next fanin position.
type frame struct {
	id   network.NodeID
	next int
}

// NewEncoder returns an encoder for net writing into solver.
func NewEncoder(net *network.Network, solver *sat.Solver) *Encoder {
	return &Encoder{Solver: solver, net: net}
}

// Var returns the solver variable of a node, allocating it on first use.
// The caller must ensure the node's defining clauses are emitted via
// EncodeCone before solving.
func (e *Encoder) Var(id network.NodeID) int {
	if e.Encoded(id) {
		return e.varOf[id]
	}
	for len(e.varOf) <= int(id) {
		e.varOf = append(e.varOf, -1)
	}
	v := e.Solver.NewVar()
	e.varOf[id] = v
	return v
}

// Lit returns a solver literal for the node's output.
func (e *Encoder) Lit(id network.NodeID, neg bool) sat.Lit {
	return sat.MkLit(e.Var(id), neg)
}

// Encoded reports whether the node's cone has already been encoded.
func (e *Encoder) Encoded(id network.NodeID) bool {
	return int(id) < len(e.varOf) && e.varOf[id] >= 0
}

// EncodeCone emits Tseitin clauses for every node in root's fanin cone that
// has not been encoded yet, in DFS post-order (fanins first), so variables
// are numbered as in network.FaninCone order. The walk stops at encoded
// nodes, whose cones are encoded already. It needs no visited set: a node
// is encoded as it leaves the stack, and the only unencoded nodes seen
// twice would be ancestors on the stack, which a DAG never revisits. It
// returns false when the solver became trivially unsatisfiable (cannot
// happen for well-formed networks).
func (e *Encoder) EncodeCone(root network.NodeID) bool {
	if e.Encoded(root) {
		return true
	}
	e.stack = append(e.stack[:0], frame{id: root})
	for len(e.stack) > 0 {
		top := &e.stack[len(e.stack)-1]
		if fanins := e.net.Node(top.id).Fanins; top.next < len(fanins) {
			f := fanins[top.next]
			top.next++
			if !e.Encoded(f) {
				e.stack = append(e.stack, frame{id: f})
			}
			continue
		}
		e.stack = e.stack[:len(e.stack)-1]
		if !e.encodeNode(top.id) {
			return false
		}
	}
	return true
}

func (e *Encoder) encodeNode(id network.NodeID) bool {
	nd := e.net.Node(id)
	y := e.Var(id)
	switch nd.Kind {
	case network.KindPI:
		return true // free variable
	case network.KindConst:
		return e.Solver.AddClause(sat.MkLit(y, !nd.Func.IsConst1()))
	}
	on, off := e.net.Covers(id)
	// cube -> y  becomes  (!cube | y);  cube -> !y  becomes  (!cube | !y)
	return e.addCover(nd, sat.MkLit(y, false), on) && e.addCover(nd, sat.MkLit(y, true), off)
}

// addCover adds one clause (out | !cube) per cube of cover over nd's fanins.
func (e *Encoder) addCover(nd *network.Node, out sat.Lit, cover tt.Cover) bool {
	for _, cube := range cover {
		e.lits = append(e.lits[:0], out)
		for i, f := range nd.Fanins {
			v, cared := cube.Has(i)
			if !cared {
				continue
			}
			e.lits = append(e.lits, sat.MkLit(e.Var(f), v))
		}
		if !e.Solver.AddClause(e.lits...) {
			return false
		}
	}
	return true
}

// AssertDiffer adds clauses forcing the outputs of nodes a and b to differ:
// (a | b) & (!a | !b). This is the miter constraint used to disprove a
// candidate equivalence; UNSAT means the nodes are equivalent.
func (e *Encoder) AssertDiffer(a, b network.NodeID) bool {
	la, lb := e.Lit(a, false), e.Lit(b, false)
	if !e.Solver.AddClause(la, lb) {
		return false
	}
	return e.Solver.AddClause(la.Not(), lb.Not())
}

// Miter encodes both fanin cones and returns the positive literal of a
// fresh XOR output: assuming it asks the solver whether the nodes can
// differ (UNSAT proves equivalence). The literal is meant to be assumed,
// never asserted, so later calls stay unconstrained.
func (e *Encoder) Miter(a, b network.NodeID) sat.Lit {
	e.EncodeCone(a)
	e.EncodeCone(b)
	return e.XorLit(e.Lit(a, false), e.Lit(b, false))
}

// LearnEqual asserts that two nodes are equal, encoding their cones if
// needed. Used to teach the solver equivalences proven elsewhere so later
// miters over the merged cones become trivial.
func (e *Encoder) LearnEqual(a, b network.NodeID) {
	e.EncodeCone(a)
	e.EncodeCone(b)
	e.Solver.AddClause(e.Lit(a, true), e.Lit(b, false))
	e.Solver.AddClause(e.Lit(a, false), e.Lit(b, true))
}

// XorLit introduces a fresh variable x with x <-> (a XOR b) and returns its
// positive literal; used to build multi-output miters.
func (e *Encoder) XorLit(a, b sat.Lit) sat.Lit {
	x := sat.MkLit(e.Solver.NewVar(), false)
	e.Solver.AddClause(x.Not(), a, b)
	e.Solver.AddClause(x.Not(), a.Not(), b.Not())
	e.Solver.AddClause(x, a.Not(), b)
	e.Solver.AddClause(x, a, b.Not())
	return x
}

// Model extracts the primary-input assignment from a satisfying model,
// indexed by PI position; PIs outside the encoded cones default to false.
func (e *Encoder) Model() []bool {
	assign := make([]bool, e.net.NumPIs())
	for i, pi := range e.net.PIs() {
		if e.Encoded(pi) {
			assign[i] = e.Solver.Value(e.varOf[pi])
		}
	}
	return assign
}
