package main

import (
	"fmt"
	"math/rand"

	"simgen"
)

// The output checks evaluate networks with the bit-parallel evaluator
// below, written against the public Network API only, so a defect in the
// simulator, the sweeper or the prover cannot hide itself.

// exhaustiveMaxPIs is the largest PI count checked on every input
// assignment; wider circuits get checkWords seeded random words.
const (
	exhaustiveMaxPIs = 16
	checkWords       = 16
)

// evalWord evaluates every node of net for one 64-lane word of PI values
// (pis[i] holds PI i across the lanes), writing into vals, which must
// have net.NumNodes() entries. Node IDs are topological, so one forward
// scan suffices.
func evalWord(net *simgen.Network, pis []uint64, vals []uint64) {
	for i, id := range net.PIs() {
		vals[id] = pis[i]
	}
	var fanins [16]uint64
	for id := 0; id < net.NumNodes(); id++ {
		n := net.Node(simgen.NodeID(id))
		switch n.Kind {
		case simgen.KindPI:
		case simgen.KindConst:
			vals[id] = 0
			if n.Func.Bit(0) {
				vals[id] = ^uint64(0)
			}
		default:
			in := fanins[:len(n.Fanins)]
			for i, f := range n.Fanins {
				in[i] = vals[f]
			}
			vals[id] = evalLUT(n.Func.Words(), in)
		}
	}
}

// evalLUT applies a truth table, given as its packed words (bit m is
// the value on minterm m, bit i of m being fanin i), to 64 lanes of fanin
// values: a Shannon expansion for up to 6 fanins, lane by lane above.
func evalLUT(tt []uint64, in []uint64) uint64 {
	if len(in) <= 6 {
		return shannon(tt[0], in)
	}
	var out uint64
	for lane := uint(0); lane < 64; lane++ {
		m := 0
		for i, w := range in {
			m |= int(w>>lane&1) << i
		}
		out |= tt[m>>6] >> (m & 63) & 1 << lane
	}
	return out
}

// shannon evaluates the 2^len(x)-bit table t on the lanes of x.
func shannon(t uint64, x []uint64) uint64 {
	k := len(x)
	if k == 0 {
		if t&1 != 0 {
			return ^uint64(0)
		}
		return 0
	}
	half := uint(1) << (k - 1)
	lo, hi := t&(1<<half-1), t>>half&(1<<half-1)
	if lo == hi {
		return shannon(lo, x[:k-1])
	}
	v := x[k-1]
	return v&shannon(hi, x[:k-1]) | ^v&shannon(lo, x[:k-1])
}

// checkWordsFor returns the PI words the sweep check simulates: every
// assignment for at most exhaustiveMaxPIs inputs (minterm w*64+lane on
// lane lane of word w), seeded random words otherwise.
func checkWordsFor(npi int, seed int64) [][]uint64 {
	if npi <= exhaustiveMaxPIs {
		nw := 1
		if npi > 6 {
			nw = 1 << (npi - 6)
		}
		words := make([][]uint64, nw)
		for w := range words {
			words[w] = make([]uint64, npi)
			for i := range words[w] {
				for lane := 0; lane < 64; lane++ {
					if (w*64+lane)>>i&1 != 0 {
						words[w][i] |= 1 << lane
					}
				}
			}
		}
		return words
	}
	rng := rand.New(rand.NewSource(seed))
	words := make([][]uint64, checkWords)
	for w := range words {
		words[w] = make([]uint64, npi)
		for i := range words[w] {
			words[w][i] = rng.Uint64()
		}
	}
	return words
}

// checkSameFunction reports an error unless got computes the same
// function as want on every PO, over the check words for want's PIs. The
// networks are matched by PI and PO position, as ApplySweep preserves
// the interface.
func checkSameFunction(want, got *simgen.Network, seed int64) error {
	if want.NumPIs() != got.NumPIs() || want.NumPOs() != got.NumPOs() {
		return fmt.Errorf("interface changed: %d/%d PIs, %d/%d POs",
			want.NumPIs(), got.NumPIs(), want.NumPOs(), got.NumPOs())
	}
	wv := make([]uint64, want.NumNodes())
	gv := make([]uint64, got.NumNodes())
	for _, pis := range checkWordsFor(want.NumPIs(), seed) {
		evalWord(want, pis, wv)
		evalWord(got, pis, gv)
		for i, po := range want.POs() {
			gpo := got.POs()[i]
			if d := wv[po.Driver] ^ gv[gpo.Driver]; d != 0 {
				return fmt.Errorf("output %s differs after sweeping", po.Name)
			}
		}
	}
	return nil
}

// checkCounterexample reports an error unless cex separates a and b on
// some PO under SimulateVector.
func checkCounterexample(a, b *simgen.Network, cex []bool) error {
	if len(cex) != a.NumPIs() {
		return fmt.Errorf("counterexample has %d values for %d PIs", len(cex), a.NumPIs())
	}
	va, vb := simgen.SimulateVector(a, cex), simgen.SimulateVector(b, cex)
	for i, po := range a.POs() {
		if va[po.Driver] != vb[b.POs()[i].Driver] {
			return nil
		}
	}
	return fmt.Errorf("counterexample does not separate the circuits")
}
