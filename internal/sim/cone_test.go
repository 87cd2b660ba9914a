package sim

import (
	"math/rand"
	"slices"
	"testing"

	"simgen/internal/genbench"
	"simgen/internal/network"
)

// coneNets returns the networks the Cone tests run on: random LUT
// networks of a few shapes and two Table-2 circuits.
func coneNets(t testing.TB) map[string]*network.Network {
	t.Helper()
	nets := map[string]*network.Network{
		"rand-small": benchNet(6, 40, 3),
		"rand-mid":   benchNet(12, 300, 4),
		"rand-wide":  benchNet(40, 600, 5),
	}
	for _, name := range []string{"apex2", "alu4"} {
		nets[name] = table2Net(t, name)
	}
	return nets
}

func table2Net(t testing.TB, name string) *network.Network {
	t.Helper()
	bm, ok := genbench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	net, err := bm.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// randomPairs draws n node pairs of net, mixing PIs, shallow and deep
// nodes so consecutive cones differ in size.
func randomPairs(net *network.Network, n int, rng *rand.Rand) [][2]network.NodeID {
	pairs := make([][2]network.NodeID, n)
	for i := range pairs {
		pairs[i] = [2]network.NodeID{
			network.NodeID(rng.Intn(net.NumNodes())),
			network.NodeID(rng.Intn(net.NumNodes())),
		}
	}
	return pairs
}

// unionAfter appends the members of next missing from first to a copy of
// first: the documented order of both Pair's support and its nodes.
func unionAfter(first, next []network.NodeID) []network.NodeID {
	out := slices.Clone(first)
	for _, id := range next {
		if !slices.Contains(first, id) {
			out = append(out, id)
		}
	}
	return out
}

func TestConePairOrder(t *testing.T) {
	for name, net := range coneNets(t) {
		c := NewCone(net)
		rng := rand.New(rand.NewSource(7))
		for _, p := range randomPairs(net, 200, rng) {
			a, b := p[0], p[1]
			pis := slices.Clone(c.Pair(a, b))
			if want := unionAfter(net.ConePIs(a), net.ConePIs(b)); !slices.Equal(pis, want) {
				t.Fatalf("%s: Pair(%d,%d) support %v, want %v", name, a, b, pis, want)
			}
			if want := unionAfter(net.FaninCone(a), net.FaninCone(b)); !slices.Equal(c.order, want) {
				t.Fatalf("%s: Pair(%d,%d) nodes %v, want %v", name, a, b, c.order, want)
			}
		}
	}
}

// TestConeEvalMatchesReference reuses one Cone across pairs of varying
// cone size and word count, so a stale arena view or a leftover epoch
// stamp shows up as a mismatch against the reference simulator.
func TestConeEvalMatchesReference(t *testing.T) {
	for name, net := range coneNets(t) {
		rng := rand.New(rand.NewSource(11))
		piPos := make([]int, net.NumNodes())
		for i, pi := range net.PIs() {
			piPos[pi] = i
		}
		ref := map[int]Values{}
		in := map[int][]Words{}
		for _, nw := range []int{1, 3, 64} {
			in[nw] = RandomInputs(net, nw, rng)
			ref[nw] = Reference(net, in[nw], nw)
		}
		c := NewCone(net)
		for i, p := range randomPairs(net, 150, rng) {
			nw := []int{1, 3, 64}[i%3]
			a, b := p[0], p[1]
			pis := c.Pair(a, b)
			calls := 0
			va, vb := c.Eval(nw, func(j int, out Words) {
				if j != calls {
					t.Fatalf("%s: fill called for input %d, want %d", name, j, calls)
				}
				calls++
				copy(out, in[nw][piPos[pis[j]]])
			})
			if calls != len(pis) {
				t.Fatalf("%s: fill called %d times for %d inputs", name, calls, len(pis))
			}
			if !slices.Equal(va, ref[nw][a]) || !slices.Equal(vb, ref[nw][b]) {
				t.Fatalf("%s: Eval(%d) on pair (%d,%d) differs from Reference", name, nw, a, b)
			}
			for _, pi := range net.PIs() {
				v := c.Val(pi)
				if inCone := slices.Contains(pis, pi); inCone != (v != nil) {
					t.Fatalf("%s: Val(%d) presence %v, want %v", name, pi, v != nil, inCone)
				}
				if v != nil && !slices.Equal(v, ref[nw][pi]) {
					t.Fatalf("%s: Val(%d) differs from the filled input", name, pi)
				}
			}
		}
	}
}

// BenchmarkConeEval is the exhaustive-simulation engine's kernel: Pair
// plus a 2^k-lane Eval over every candidate pair (each non-singleton
// class member against its representative, after one random round) with
// at most 12 support inputs.
func BenchmarkConeEval(b *testing.B) {
	for _, name := range []string{"apex2", "alu4"} {
		net := table2Net(b, name)
		rng := rand.New(rand.NewSource(1))
		classes := NewClasses(net, Simulate(net, RandomInputs(net, 1, rng), 1))
		c := NewCone(net)
		var pairs [][2]network.NodeID
		for _, ci := range classes.NonSingleton() {
			members := classes.Members(ci)
			for _, m := range members[1:] {
				if len(c.Pair(members[0], m)) <= 12 {
					pairs = append(pairs, [2]network.NodeID{members[0], m})
				}
			}
		}
		fill := func(j int, out Words) {
			for w := range out {
				out[w] = ExhaustiveWord(j, w)
			}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					c.Eval(ExhaustiveWords(len(c.Pair(p[0], p[1]))), fill)
				}
			}
			b.ReportMetric(float64(len(pairs)), "pairs/op")
		})
	}
}
