package sim

import "simgen/internal/network"

// Cone is a reusable bit-parallel evaluator over the union of two fanin
// cones: the kernel shared by the exhaustive-simulation engine and proof
// cache revalidation. Pair loads a node pair, Eval simulates it for any
// number of words with caller-supplied primary-input words. Node rows live
// in one compact arena sized to the loaded cone, so a small pair costs
// nothing proportional to the network. A Cone is not safe for concurrent
// use; it reads the network's lazily cached covers, which must be warmed
// before the network is shared across goroutines.
type Cone struct {
	net *network.Network

	// stamp[id] == epoch marks id as a member of the loaded cone, with
	// row[id] its index in order. Bumping epoch empties the cone without
	// clearing either slice.
	stamp []uint32
	row   []int32
	epoch uint32

	order  []network.NodeID // topological: FaninCone(a), then b's new nodes
	pis    []network.NodeID // order's primary inputs, in order
	a, b   network.NodeID
	nwords int
	arena  []uint64
}

// NewCone creates an evaluator over net.
func NewCone(net *network.Network) *Cone {
	n := net.NumNodes()
	return &Cone{net: net, stamp: make([]uint32, n), row: make([]int32, n)}
}

// Pair loads the union of a's and b's fanin cones and returns its primary
// inputs — the pair's combined structural support. Nodes are ordered as
// FaninCone(a) followed by b's nodes outside it, in FaninCone(b) order, so
// the support is ConePIs(a) followed by b's new inputs. The returned slice
// is reused by the next Pair call.
func (c *Cone) Pair(a, b network.NodeID) []network.NodeID {
	c.epoch++
	if c.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(c.stamp)
		c.epoch = 1
	}
	c.a, c.b = a, b
	c.order, c.pis = c.order[:0], c.pis[:0]
	c.visit(a)
	c.visit(b)
	return c.pis
}

// visit appends id's not-yet-loaded fanin cone to order in DFS
// postorder, the order network.FaninCone produces.
func (c *Cone) visit(id network.NodeID) {
	if c.stamp[id] == c.epoch {
		return
	}
	c.stamp[id] = c.epoch
	nd := c.net.Node(id)
	for _, f := range nd.Fanins {
		c.visit(f)
	}
	c.row[id] = int32(len(c.order))
	c.order = append(c.order, id)
	if nd.Kind == network.KindPI {
		c.pis = append(c.pis, id)
	}
}

// Eval simulates the loaded cone for nwords words. fill(j, out) must write
// the words of the j-th support input (Pair's result, index j) into out;
// it is called once per input, in support order. Eval returns the words of
// the pair's two roots, views into an arena the next Eval overwrites.
func (c *Cone) Eval(nwords int, fill func(j int, out Words)) (va, vb Words) {
	if need := len(c.order) * nwords; cap(c.arena) < need {
		c.arena = make([]uint64, need)
	}
	c.nwords = nwords
	j := 0
	for i, id := range c.order {
		out := c.words(int32(i))
		nd := c.net.Node(id)
		switch nd.Kind {
		case network.KindPI:
			fill(j, out)
			j++
		case network.KindConst:
			v := uint64(0)
			if nd.Func.IsConst1() {
				v = ^uint64(0)
			}
			for w := range out {
				out[w] = v
			}
		default:
			// OR over the on-set cubes of the AND of (possibly
			// complemented) fanin words.
			on, _ := c.net.Covers(id)
			for w := range out {
				var word uint64
				for _, cube := range on {
					term := ^uint64(0)
					for k, f := range nd.Fanins {
						v, cared := cube.Has(k)
						if !cared {
							continue
						}
						if fw := c.arena[int(c.row[f])*nwords+w]; v {
							term &= fw
						} else {
							term &^= fw
						}
					}
					word |= term
				}
				out[w] = word
			}
		}
	}
	return c.words(c.row[c.a]), c.words(c.row[c.b])
}

// Val returns the words Eval computed for id in the loaded pair, or nil
// when id is outside the loaded cone. Call it after Eval: Pair alone
// leaves the rows unevaluated.
func (c *Cone) Val(id network.NodeID) Words {
	if c.stamp[id] != c.epoch {
		return nil
	}
	return c.words(c.row[id])
}

func (c *Cone) words(row int32) Words {
	lo := int(row) * c.nwords
	return Words(c.arena[lo : lo+c.nwords : lo+c.nwords])
}

// lanePatterns are the exhaustive assignments of variables 0..5 within one
// 64-bit word: lane m holds bit j of m.
var lanePatterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// ExhaustiveWords is the number of words that enumerate every assignment
// of k variables.
func ExhaustiveWords(k int) int {
	if k <= 6 {
		return 1
	}
	return 1 << (k - 6)
}

// ExhaustiveWord is word w of variable j in the exhaustive enumeration:
// lane m of word w is bit j of minterm 64*w+m, the minterm layout of
// tt.Table. Variables below 6 alternate within a word, the rest select
// whole words.
func ExhaustiveWord(j, w int) uint64 {
	if j < 6 {
		return lanePatterns[j]
	}
	if (w>>(j-6))&1 == 1 {
		return ^uint64(0)
	}
	return 0
}
