package sat

import (
	"math/rand"
	"testing"
)

// bruteForce determines satisfiability of a CNF over nvars variables by
// enumeration.
func bruteForce(nvars int, cnf [][]Lit) (bool, uint32) {
	for m := uint32(0); m < 1<<uint(nvars); m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				v := m&(1<<uint(l.Var())) != 0
				if v != l.IsNeg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true, m
		}
	}
	return false, 0
}

func solveCNF(nvars int, cnf [][]Lit) (*Solver, Status) {
	s := New()
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	for _, cl := range cnf {
		if !s.AddClause(cl...) {
			return s, Unsat
		}
	}
	return s, s.Solve()
}

func checkModel(t *testing.T, s *Solver, cnf [][]Lit) {
	t.Helper()
	for _, cl := range cnf {
		sat := false
		for _, l := range cl {
			if s.Value(l.Var()) != l.IsNeg() {
				sat = true
				break
			}
		}
		if !sat {
			t.Fatalf("model violates clause %v", cl)
		}
	}
}

func TestTrivialCases(t *testing.T) {
	s := New()
	if s.Solve() != Sat {
		t.Fatal("empty formula should be SAT")
	}
	v := s.NewVar()
	if !s.AddClause(MkLit(v, false)) {
		t.Fatal("unit clause rejected")
	}
	if s.Solve() != Sat || !s.Value(v) {
		t.Fatal("unit not satisfied")
	}
	if s.AddClause(MkLit(v, true)) {
		t.Fatal("contradicting unit accepted")
	}
	if s.Solve() != Unsat {
		t.Fatal("contradiction not detected")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause accepted")
	}
	if s.Solve() != Unsat {
		t.Fatal("empty clause should be UNSAT")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	if !s.AddClause(MkLit(a, false), MkLit(a, true)) {
		t.Fatal("tautology rejected")
	}
	if !s.AddClause(MkLit(b, false), MkLit(b, false)) {
		t.Fatal("duplicate-literal clause rejected")
	}
	if s.Solve() != Sat || !s.Value(b) {
		t.Fatal("dedup broke semantics")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// x0 & (x0->x1) & (x1->x2) & ... & (xn-1 -> xn): all true.
	s := New()
	n := 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(MkLit(vars[0], false))
	for i := 0; i+1 < n; i++ {
		s.AddClause(MkLit(vars[i], true), MkLit(vars[i+1], false))
	}
	if s.Solve() != Sat {
		t.Fatal("chain should be SAT")
	}
	for i := range vars {
		if !s.Value(vars[i]) {
			t.Fatalf("var %d should be true", i)
		}
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons into n holes is UNSAT. Classic hard family;
	// n=6 keeps runtime reasonable while forcing real conflict analysis.
	s := php(6)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(7,6) = %v, want UNSAT", got)
	}
	if s.Stats.Conflicts == 0 {
		t.Fatal("expected nontrivial conflict analysis")
	}
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		nvars := 3 + rng.Intn(10)
		nclauses := 2 + rng.Intn(nvars*5)
		cnf := make([][]Lit, nclauses)
		for i := range cnf {
			width := 1 + rng.Intn(3)
			cl := make([]Lit, width)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 1)
			}
			cnf[i] = cl
		}
		wantSat, _ := bruteForce(nvars, cnf)
		s, got := solveCNF(nvars, cnf)
		if (got == Sat) != wantSat {
			t.Fatalf("trial %d: solver=%v bruteforce sat=%v\ncnf=%v", trial, got, wantSat, cnf)
		}
		if got == Sat {
			checkModel(t, s, cnf)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	// a -> b
	s.AddClause(MkLit(a, true), MkLit(b, false))
	if s.Solve(MkLit(a, false), MkLit(b, true)) != Unsat {
		t.Fatal("a & !b should be UNSAT under a->b")
	}
	if s.Solve(MkLit(a, false)) != Sat {
		t.Fatal("a alone should be SAT")
	}
	if !s.Value(a) || !s.Value(b) {
		t.Fatal("model should satisfy assumption and implication")
	}
	// Assumptions don't persist.
	if s.Solve(MkLit(b, true)) != Sat {
		t.Fatal("!b should be SAT")
	}
	if s.Value(b) {
		t.Fatal("assumption !b violated")
	}
}

func TestAssumptionsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		nvars := 4 + rng.Intn(6)
		nclauses := 2 + rng.Intn(nvars*4)
		cnf := make([][]Lit, nclauses)
		for i := range cnf {
			cl := make([]Lit, 1+rng.Intn(3))
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 1)
			}
			cnf[i] = cl
		}
		nass := 1 + rng.Intn(2)
		assumed := map[int]bool{}
		var assumptions []Lit
		for len(assumptions) < nass {
			v := rng.Intn(nvars)
			if assumed[v] {
				continue
			}
			assumed[v] = true
			assumptions = append(assumptions, MkLit(v, rng.Intn(2) == 1))
		}
		// Brute force with assumptions appended as units.
		full := append([][]Lit{}, cnf...)
		for _, a := range assumptions {
			full = append(full, []Lit{a})
		}
		wantSat, _ := bruteForce(nvars, full)

		s := New()
		for i := 0; i < nvars; i++ {
			s.NewVar()
		}
		ok := true
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				ok = false
				break
			}
		}
		var got Status
		if !ok {
			got = Unsat
		} else {
			got = s.Solve(assumptions...)
		}
		if (got == Sat) != wantSat {
			t.Fatalf("trial %d: solver=%v want sat=%v\ncnf=%v assume=%v", trial, got, wantSat, cnf, assumptions)
		}
		if got == Sat {
			checkModel(t, s, full)
		}
	}
}

func TestIncrementalSolving(t *testing.T) {
	// Solve, add a blocking clause, solve again — the counterexample
	// refinement pattern used by SAT sweeping.
	s := New()
	nvars := 6
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	s.AddClause(MkLit(0, false), MkLit(1, false))
	models := map[uint32]bool{}
	count := 0
	for s.Solve() == Sat {
		var m uint32
		block := make([]Lit, nvars)
		for v := 0; v < nvars; v++ {
			if s.Value(v) {
				m |= 1 << uint(v)
			}
			block[v] = MkLit(v, s.Value(v))
		}
		if models[m] {
			t.Fatalf("model %b repeated", m)
		}
		models[m] = true
		count++
		if count > 64 {
			t.Fatal("too many models")
		}
		if !s.AddClause(block...) {
			break
		}
	}
	// x0|x1 over 6 vars has 3 * 16 = 48 models.
	if count != 48 {
		t.Fatalf("enumerated %d models, want 48", count)
	}
}

func TestConflictBudget(t *testing.T) {
	// A hard pigeonhole instance with a tiny budget must return Unknown.
	s := php(8)
	s.ConflictBudget = 10
	if got := s.Solve(); got != Unknown {
		t.Fatalf("budgeted solve = %v, want Unknown", got)
	}
}

func TestXorChainUnsat(t *testing.T) {
	// Tseitin-style XOR chain with odd parity constraint twice -> UNSAT.
	// x1^x2 = t1, t1^x3 = t2, assert t2 and !t2 via clauses.
	s := New()
	x1, x2, x3 := s.NewVar(), s.NewVar(), s.NewVar()
	t1, t2 := s.NewVar(), s.NewVar()
	addXor := func(out, a, b int) {
		s.AddClause(MkLit(out, true), MkLit(a, false), MkLit(b, false))
		s.AddClause(MkLit(out, true), MkLit(a, true), MkLit(b, true))
		s.AddClause(MkLit(out, false), MkLit(a, false), MkLit(b, true))
		s.AddClause(MkLit(out, false), MkLit(a, true), MkLit(b, false))
	}
	addXor(t1, x1, x2)
	addXor(t2, t1, x3)
	s.AddClause(MkLit(t2, false))
	if s.Solve() != Sat {
		t.Fatal("parity formula should be SAT")
	}
	s.AddClause(MkLit(t2, true))
	if s.Solve() != Unsat {
		t.Fatal("t2 & !t2 should be UNSAT")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := New()
	nvars := 30
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	for i := 0; i < 120; i++ {
		cl := make([]Lit, 3)
		for j := range cl {
			cl[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 1)
		}
		if !s.AddClause(cl...) {
			break
		}
	}
	s.Solve()
	if s.Stats.Decisions == 0 && s.Stats.Propagations == 0 {
		t.Fatal("stats not collected")
	}
}

func TestLitHelpers(t *testing.T) {
	l := MkLit(3, true)
	if l.Var() != 3 || !l.IsNeg() || l.Not().IsNeg() {
		t.Fatal("lit helpers wrong")
	}
	if l.String() != "-4" || l.Not().String() != "4" {
		t.Fatalf("lit strings: %s %s", l, l.Not())
	}
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("status strings wrong")
	}
}

func TestLearntClauseSoundness(t *testing.T) {
	// Every learnt clause must be logically implied by the input CNF.
	// This regression-tests the seen-bit bookkeeping in analyze: stale
	// seen flags from minimization once dropped literals from later
	// learnt clauses.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		nvars := 5 + rng.Intn(5)
		var cnf [][]Lit
		s := New()
		for i := 0; i < nvars; i++ {
			s.NewVar()
		}
		s.onLearn = func(learnt []Lit) {
			test := append([][]Lit{}, cnf...)
			for _, l := range learnt {
				test = append(test, []Lit{l.Not()})
			}
			if ok, m := bruteForce(nvars, test); ok {
				t.Fatalf("trial %d: unsound learnt clause %v (model %b)", trial, learnt, m)
			}
		}
		nclauses := nvars * 4
		ok := true
		for i := 0; i < nclauses && ok; i++ {
			cl := make([]Lit, 2+rng.Intn(2))
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 1)
			}
			cnf = append(cnf, cl)
			ok = s.AddClause(cl...)
		}
		// Solve repeatedly with model blocking to force incremental reuse.
		for rounds := 0; ok && rounds < 10 && s.Solve() == Sat; rounds++ {
			block := make([]Lit, nvars)
			for v := 0; v < nvars; v++ {
				block[v] = MkLit(v, s.Value(v))
			}
			cnf = append(cnf, block)
			ok = s.AddClause(block...)
		}
	}
}

func TestPigeonholeHardTriggersReduceDB(t *testing.T) {
	if testing.Short() {
		t.Skip("hard instance")
	}
	// PHP(9,8) needs enough conflicts to trip the learned-clause database
	// reduction; the clause arena, watch lists and reasons must pass
	// checkInvariants after every compaction.
	s := php(8)
	reductions := 0
	s.onReduce = func() {
		reductions++
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("after reduction %d: %v", reductions, err)
		}
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(9,8) = %v, want UNSAT", got)
	}
	if reductions == 0 {
		t.Fatal("PHP(9,8) never reduced the learnt clauses")
	}
}
