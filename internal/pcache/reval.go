package pcache

import (
	"slices"

	"simgen/internal/network"
	"simgen/internal/sim"
)

// Revalidation: a cache hit is never trusted blindly. Before a recorded
// verdict may influence the union-find, the pair is re-checked against
// the *current* network:
//
//   - a recorded disproof replays its stored counterexample — exact and
//     one vector cheap; a cex that no longer separates the pair means the
//     record belongs to some other (colliding or stale) cone pair,
//   - a recorded equivalence is re-simulated over the pair's combined
//     support: exhaustively (exact) when the support fits
//     revalExhaustivePIs, otherwise with revalRandomWords words of
//     deterministic random vectors — a probabilistic filter backstopping
//     the two independent 64-bit structural hashes (see DESIGN.md 3.14
//     for the soundness budget).
//
// Both checks run on sim.Cone, the pair-cone kernel the exhaustive
// simulation engine uses, but deliberately emit no observability events
// and touch no engine statistics: revalidation is cache bookkeeping, and
// the report invariants pin engine counters to sweep.Result fields.

const (
	// revalExhaustivePIs is the combined-support cutoff under which an
	// equivalence revalidation enumerates all assignments (exact).
	revalExhaustivePIs = 12
	// revalRandomWords is the number of 64-lane random words simulated
	// when the support is too wide to enumerate.
	revalRandomWords = 4
)

// revalEqual re-checks a recorded equivalence: exhaustive over the
// combined support when it fits the cutoff, random words otherwise. seed
// makes the random fallback deterministic per pair.
func (s *Session) revalEqual(a, b network.NodeID, seed uint64) bool {
	pis := s.cone.Pair(a, b)
	if k := len(pis); k <= revalExhaustivePIs {
		return slices.Equal(s.cone.Eval(sim.ExhaustiveWords(k), func(j int, out sim.Words) {
			for w := range out {
				out[w] = sim.ExhaustiveWord(j, w)
			}
		}))
	}
	state := seed
	return slices.Equal(s.cone.Eval(revalRandomWords, func(j int, out sim.Words) {
		for w := range out {
			state += 0x9e3779b97f4a7c15
			out[w] = mix64(state ^ (uint64(pis[j])<<32 | uint64(w)))
		}
	}))
}

// revalSeparates re-checks a recorded disproof by replaying its stored
// full-PI counterexample; exact.
func (s *Session) revalSeparates(a, b network.NodeID, cex []bool) bool {
	if len(cex) != s.net.NumPIs() {
		return false
	}
	pis := s.cone.Pair(a, b)
	va, vb := s.cone.Eval(1, func(j int, out sim.Words) {
		out[0] = 0
		if cex[s.piPos[pis[j]]] {
			out[0] = ^uint64(0)
		}
	})
	return va[0]&1 != vb[0]&1
}
