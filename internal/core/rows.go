package core

import (
	"simgen/internal/network"
	"simgen/internal/tt"
)

// row is one truth-table row of a node with don't-cares: a cube over the
// node's fanins plus the output value the cube produces — the unit of
// propagation for implication and decision.
type row struct {
	cube tt.Cube
	out  bool
}

// rowSet holds the rows of one node: the on-set rows, then the off-set
// rows from index nOn on. Row matching against an assigned output scans
// only the rows of that polarity.
type rowSet struct {
	rows []row
	nOn  int
}

// span returns the index range of the rows whose output agrees with out:
// all rows when the output is unassigned.
func (rs *rowSet) span(out value) (lo, hi int) {
	switch out {
	case val1:
		return 0, rs.nOn
	case val0:
		return rs.nOn, len(rs.rows)
	default:
		return 0, len(rs.rows)
	}
}

// rowCache lazily builds rowSets per node. Every LUT and constant has at
// least one row, so a nil row slice means "not built yet".
type rowCache struct {
	net  *network.Network
	sets []rowSet
}

func newRowCache(net *network.Network) *rowCache {
	return &rowCache{net: net, sets: make([]rowSet, net.NumNodes())}
}

func (rc *rowCache) of(id network.NodeID) *rowSet {
	rs := &rc.sets[id]
	if rs.rows != nil {
		return rs
	}
	nd := rc.net.Node(id)
	switch nd.Kind {
	case network.KindPI:
		// PIs have no rows: their value is free.
	case network.KindConst:
		rs.rows = []row{{out: nd.Func.IsConst1()}}
		if nd.Func.IsConst1() {
			rs.nOn = 1
		}
	default:
		on, off := rc.net.Covers(id)
		rs.rows = make([]row, 0, len(on)+len(off))
		for _, c := range on {
			rs.rows = append(rs.rows, row{cube: c, out: true})
		}
		for _, c := range off {
			rs.rows = append(rs.rows, row{cube: c, out: false})
		}
		rs.nOn = len(on)
	}
	return rs
}

// nodeState captures the node's currently assigned fanin values as cube
// masks plus the output value, for row matching.
type nodeState struct {
	inMask, inVal uint32
	out           value
}

// justified reports whether some consistent row is fully assigned: the
// node's output value is then guaranteed under any completion of the
// remaining unassigned inputs, so no further decision is needed here.
func (rs *rowSet) justified(st nodeState) bool {
	lo, hi := rs.span(st.out)
	for _, r := range rs.rows[lo:hi] {
		if r.cube.Mask&^st.inMask == 0 && r.cube.ConsistentWith(st.inMask, st.inVal) {
			return true
		}
	}
	return false
}
