package core

import (
	"math/rand"
	"testing"

	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/tt"
)

// randomDupNetwork builds a random network of 1-4 input LUTs whose fanin
// lists may name the same node at several positions.
func randomDupNetwork(rng *rand.Rand, npis, nluts int) *network.Network {
	n := network.New("dup")
	var ids []network.NodeID
	for i := 0; i < npis; i++ {
		ids = append(ids, n.AddPI(""))
	}
	ids = append(ids, n.AddConst(rng.Intn(2) == 1))
	for i := 0; i < nluts; i++ {
		k := 1 + rng.Intn(4)
		fi := make([]network.NodeID, k)
		for j := range fi {
			fi[j] = ids[rng.Intn(len(ids))]
		}
		fn := tt.New(k)
		for m := 0; m < 1<<k; m++ {
			fn.SetBit(m, rng.Intn(2) == 1)
		}
		ids = append(ids, n.AddLUT("", fi, fn))
	}
	n.AddPO("o", ids[len(ids)-1])
	return n
}

// scratchState recomputes a node's row-matching state from its fanins.
func scratchState(net *network.Network, a *assignment, id network.NodeID) nodeState {
	st := nodeState{out: a.vals[id]}
	for i, f := range net.Node(id).Fanins {
		if v, ok := a.get(f); ok {
			st.inMask |= 1 << uint(i)
			if v {
				st.inVal |= 1 << uint(i)
			}
		}
	}
	return st
}

func checkIncrementalState(t *testing.T, net *network.Network, a *assignment, step string) {
	t.Helper()
	for id := 0; id < net.NumNodes(); id++ {
		nid := network.NodeID(id)
		if got, want := a.state(nid), scratchState(net, a, nid); got != want {
			t.Fatalf("%s: node %d: incremental state %+v, recomputed %+v", step, id, got, want)
		}
	}
}

func TestIncrementalFaninStateMatchesRecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dups := 0
	for trial := 0; trial < 40; trial++ {
		var net *network.Network
		if trial%2 == 0 {
			net = randomDupNetwork(rng, 2+rng.Intn(4), 5+rng.Intn(20))
		} else {
			net = randomLUTNetwork(rng, 4+rng.Intn(3), 5+rng.Intn(20))
		}
		for id := 0; id < net.NumNodes(); id++ {
			fi := net.Node(network.NodeID(id)).Fanins
			for i := range fi {
				if !firstPosition(fi, i) {
					dups++
				}
			}
		}
		e := newEngine(net)
		a := e.vals
		var marks []int
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				id := network.NodeID(rng.Intn(net.NumNodes()))
				if !a.assigned(id) {
					a.set(id, rng.Intn(2) == 1)
				}
				if rng.Intn(4) == 0 {
					marks = append(marks, a.mark())
				}
			case op < 9:
				if len(marks) > 0 {
					m := marks[len(marks)-1]
					marks = marks[:len(marks)-1]
					a.undoTo(m)
				}
			default:
				a.reset()
				marks = marks[:0]
			}
			checkIncrementalState(t, net, a, "after a random step")
		}
		a.reset()
		for id := range a.inMask {
			if a.inMask[id] != 0 || a.inVal[id] != 0 {
				t.Fatalf("trial %d: node %d keeps fanin bits after reset", trial, id)
			}
		}
	}
	if dups == 0 {
		t.Fatal("no network had a duplicate fanin")
	}
}

func TestGraphFanoutsMatchNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		net := randomDupNetwork(rng, 3, 15)
		g := newGraph(net)
		for id := 0; id < net.NumNodes(); id++ {
			nid := network.NodeID(id)
			// The network lists a fanout once per fanin position; the graph
			// merges repeats into one entry, keeping node-ID order.
			var want []network.NodeID
			for _, fo := range net.Fanouts(nid) {
				if len(want) == 0 || want[len(want)-1] != fo {
					want = append(want, fo)
				}
			}
			got := g.fanouts[g.fanoutStart[id]:g.fanoutStart[id+1]]
			if len(got) != len(want) {
				t.Fatalf("node %d: fanouts %v, want %v", id, got, want)
			}
			for k, fo := range got {
				if fo != want[k] {
					t.Fatalf("node %d: fanouts %v, want %v", id, got, want)
				}
				var mask uint32
				for i, f := range net.Node(fo).Fanins {
					if f == nid {
						mask |= 1 << uint(i)
					}
				}
				if m := g.fanoutMask[g.fanoutStart[id]+int32(k)]; m != mask {
					t.Fatalf("node %d -> %d: mask %b, want %b", id, fo, m, mask)
				}
			}
			fi := g.faninsOf(nid)
			if len(fi) != len(net.Node(nid).Fanins) {
				t.Fatalf("node %d: fanins %v, want %v", id, fi, net.Node(nid).Fanins)
			}
		}
	}
}

// coneScanLatest is the reference latestUpdated: scan the target's whole
// fanin cone for the unjustified, non-stuck LUT assigned most recently,
// with node states recomputed from the fanins.
func coneScanLatest(g *Generator, target network.NodeID) network.NodeID {
	e := g.eng
	pos := make(map[network.NodeID]int, len(e.vals.trail))
	for i, id := range e.vals.trail {
		pos[id] = i
	}
	best, bestPos := network.NoNode, -1
	for _, id := range g.net.FaninCone(target) {
		if g.stuck.has(id) || g.net.Node(id).Kind != network.KindLUT {
			continue
		}
		p, ok := pos[id]
		if !ok || p < bestPos {
			continue
		}
		st := scratchState(g.net, e.vals, id)
		justified := false
		for _, r := range e.rows.of(id).rows {
			if boolValue(r.out) == st.out && r.cube.ConsistentWith(st.inMask, st.inVal) &&
				r.cube.Mask&^st.inMask == 0 {
				justified = true
				break
			}
		}
		if !justified {
			best, bestPos = id, p
		}
	}
	return best
}

func TestLatestUpdatedMatchesConeScan(t *testing.T) {
	for _, tc := range []struct {
		bench     string
		backtrack int
	}{{"apex2", 0}, {"cps", 0}, {"alu4", 4}} {
		b, ok := genbench.ByName(tc.bench)
		if !ok {
			t.Fatalf("unknown benchmark %s", tc.bench)
		}
		net, err := b.LUTNetwork()
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(net, 1, 42)
		g := NewGenerator(net, StrategySimGen, 1)
		g.Backtrack = tc.backtrack
		checked := 0
		g.checkLatest = func(target, cand network.NodeID) {
			checked++
			if want := coneScanLatest(g, target); cand != want {
				t.Fatalf("%s: target %d: latestUpdated %d, cone scan %d", tc.bench, target, cand, want)
			}
		}
		r.Run(g, 2)
		if g.Decisions == 0 || checked <= g.Decisions {
			t.Fatalf("%s: %d decisions, %d checks", tc.bench, g.Decisions, checked)
		}
		if tc.backtrack > 0 && g.Backtracks == 0 {
			t.Fatalf("%s: backtracking never exercised", tc.bench)
		}
	}
}
