package sat

import (
	"math/rand"
	"testing"
)

// random3SAT builds a seeded uniform random 3-SAT instance with nvars
// variables and nclauses clauses.
func random3SAT(seed int64, nvars, nclauses int) *Solver {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	cl := make([]Lit, 3)
	for i := 0; i < nclauses; i++ {
		for j := range cl {
			cl[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 1)
		}
		s.AddClause(cl...)
	}
	return s
}

// BenchmarkSolve builds and solves one instance per op: the pigeonhole
// problem PHP(8,7) (UNSAT) and a seeded random 3-SAT instance at clause
// ratio 4.26, near the satisfiability threshold. Both report the search's
// conflicts and propagations per op, which are deterministic.
func BenchmarkSolve(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() *Solver
	}{
		{"php7", func() *Solver { return php(7) }},
		{"random3sat", func() *Solver { return random3SAT(1, 200, 852) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var st Stats
			for i := 0; i < b.N; i++ {
				s := bc.build()
				s.Solve()
				st = s.Stats
			}
			b.ReportMetric(float64(st.Conflicts), "conflicts/op")
			b.ReportMetric(float64(st.Propagations), "props/op")
		})
	}
}
