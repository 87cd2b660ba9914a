// Package core implements the SimGen simulation-pattern generator — the
// contribution of the paper — together with the two baselines it is
// evaluated against: plain reverse simulation (Zhang et al., DAC'21) and
// random simulation.
//
// SimGen receives equivalence classes of a LUT network, picks desired
// output values (OUTgold) for the members of a class, and searches for a
// primary-input vector compatible with those values by interleaving two
// ATPG-style propagation mechanisms: implication (forced assignments) and
// decision (heuristic row selection).
package core

import (
	"simgen/internal/network"
)

// value is a ternary node value.
type value int8

const (
	unassigned value = -1
	val0       value = 0
	val1       value = 1
)

func boolValue(b bool) value {
	if b {
		return val1
	}
	return val0
}

// graph is the flat (CSR) view of a network that the engine runs on: the
// fanins of node n are fanins[faninStart[n]:faninStart[n+1]], and its
// fanouts are fanouts[fanoutStart[n]:fanoutStart[n+1]], in node-ID order.
// Each fanout entry carries the mask of the fanin positions n occupies in
// that fanout; a node feeding several positions of one fanout has a single
// entry with all of them set.
type graph struct {
	kind        []network.Kind
	faninStart  []int32
	fanins      []network.NodeID
	fanoutStart []int32
	fanouts     []network.NodeID
	fanoutMask  []uint32
}

// newGraph flattens the network in two passes over its nodes: the first
// counts, the second fills arrays sized exactly.
func newGraph(net *network.Network) *graph {
	n := net.NumNodes()
	g := &graph{
		kind:        make([]network.Kind, n),
		faninStart:  make([]int32, n+1),
		fanoutStart: make([]int32, n+1),
	}
	nFanins, nFanouts := 0, 0
	for id := 0; id < n; id++ {
		nd := net.Node(network.NodeID(id))
		g.kind[id] = nd.Kind
		nFanins += len(nd.Fanins)
		for i, f := range nd.Fanins {
			if firstPosition(nd.Fanins, i) {
				g.fanoutStart[f+1]++
				nFanouts++
			}
		}
	}
	for id := 0; id < n; id++ {
		g.fanoutStart[id+1] += g.fanoutStart[id]
	}
	g.fanins = make([]network.NodeID, 0, nFanins)
	g.fanouts = make([]network.NodeID, nFanouts)
	g.fanoutMask = make([]uint32, nFanouts)
	// fanoutStart[f] serves as f's fill cursor; after the fill it holds the
	// end of f's list, i.e. the start of f+1's, and is shifted back.
	for id := 0; id < n; id++ {
		fi := net.Node(network.NodeID(id)).Fanins
		g.fanins = append(g.fanins, fi...)
		g.faninStart[id+1] = int32(len(g.fanins))
		for i, f := range fi {
			if !firstPosition(fi, i) {
				continue
			}
			var mask uint32
			for j := i; j < len(fi); j++ {
				if fi[j] == f {
					mask |= 1 << uint(j)
				}
			}
			k := g.fanoutStart[f]
			g.fanouts[k] = network.NodeID(id)
			g.fanoutMask[k] = mask
			g.fanoutStart[f] = k + 1
		}
	}
	copy(g.fanoutStart[1:], g.fanoutStart[:n])
	g.fanoutStart[0] = 0
	return g
}

// firstPosition reports whether fi[i] does not occur earlier in fi.
func firstPosition(fi []network.NodeID, i int) bool {
	for _, f := range fi[:i] {
		if f == fi[i] {
			return false
		}
	}
	return true
}

// faninsOf returns the node's fanins (not copied; do not mutate).
func (g *graph) faninsOf(id network.NodeID) []network.NodeID {
	return g.fanins[g.faninStart[id]:g.faninStart[id+1]]
}

// assignment is a partial assignment of node output values with a trail for
// checkpoint/undo. Assignments are strictly ordered along the trail, which
// is what the latestUpdated rule of Algorithm 1 walks. Every change also
// updates, through the fanout lists, the assigned-fanin words of the
// affected nodes, so a node's row-matching state is read without visiting
// its fanins.
type assignment struct {
	g     *graph
	vals  []value
	trail []network.NodeID

	// inMask[n] has bit i set when fanin i of n is assigned; inVal[n] holds
	// the values of those fanins.
	inMask, inVal []uint32
}

// newAssignment returns an empty assignment over numNodes unconnected
// nodes.
func newAssignment(numNodes int) *assignment {
	return newAssignmentOn(&graph{fanoutStart: make([]int32, numNodes+1)})
}

// newAssignmentOn returns an empty assignment over the graph's nodes.
func newAssignmentOn(g *graph) *assignment {
	n := len(g.fanoutStart) - 1
	a := &assignment{
		g:      g,
		vals:   make([]value, n),
		inMask: make([]uint32, n),
		inVal:  make([]uint32, n),
	}
	for i := range a.vals {
		a.vals[i] = unassigned
	}
	return a
}

// get returns the node's value and whether it is assigned.
func (a *assignment) get(id network.NodeID) (bool, bool) {
	v := a.vals[id]
	return v == val1, v != unassigned
}

// assigned reports whether the node has a value.
func (a *assignment) assigned(id network.NodeID) bool { return a.vals[id] != unassigned }

// state returns the node's row-matching state.
func (a *assignment) state(id network.NodeID) nodeState {
	return nodeState{inMask: a.inMask[id], inVal: a.inVal[id], out: a.vals[id]}
}

// set assigns a value, recording it on the trail. The caller must have
// checked the node is unassigned or equal.
func (a *assignment) set(id network.NodeID, v bool) {
	if a.vals[id] != unassigned {
		if a.vals[id] != boolValue(v) {
			panic("core: conflicting set; callers must check first")
		}
		return
	}
	a.vals[id] = boolValue(v)
	a.trail = append(a.trail, id)
	g := a.g
	for k := g.fanoutStart[id]; k < g.fanoutStart[id+1]; k++ {
		fo, m := g.fanouts[k], g.fanoutMask[k]
		a.inMask[fo] |= m
		if v {
			a.inVal[fo] |= m
		}
	}
}

// mark returns a checkpoint for undoTo.
func (a *assignment) mark() int { return len(a.trail) }

// undoTo unassigns everything set after the checkpoint.
func (a *assignment) undoTo(mark int) {
	g := a.g
	for i := len(a.trail) - 1; i >= mark; i-- {
		id := a.trail[i]
		a.vals[id] = unassigned
		for k := g.fanoutStart[id]; k < g.fanoutStart[id+1]; k++ {
			fo, m := g.fanouts[k], g.fanoutMask[k]
			a.inMask[fo] &^= m
			a.inVal[fo] &^= m
		}
	}
	a.trail = a.trail[:mark]
}

// reset clears the whole assignment.
func (a *assignment) reset() { a.undoTo(0) }
