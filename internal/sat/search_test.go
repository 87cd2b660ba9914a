package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// The sweeping goldens see the solver only through whole sweeps; these
// tests pin its search directly. The expected Stats were measured on the
// per-variable-value, one-slice-per-clause solver that preceded the clause
// arena, so a layout change that alters any decision, propagation, restart
// or reduction fails here.

func TestSearchPinnedPigeonhole(t *testing.T) {
	s := php(7)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(8,7) = %v, want UNSAT", got)
	}
	want := Stats{Decisions: 5681, Propagations: 62466, Conflicts: 4628, Restarts: 24, Learnt: 4624}
	if s.Stats != want {
		t.Fatalf("PHP(8,7) stats = %+v, want %+v", s.Stats, want)
	}
	if got := s.NumClauses(); got != 1785 {
		t.Fatalf("PHP(8,7) NumClauses = %d, want 1785", got)
	}
}

// incrementalRun grows a random 3-SAT formula over nvars fresh variables of
// s towards the satisfiability threshold, one batch of clauses per round,
// and solves after every batch under a few random assumptions. It calls
// after (when non-nil) once per round and returns every round's status.
func incrementalRun(s *Solver, rng *rand.Rand, nvars, rounds int, after func(round int)) []Status {
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	var sts []Status
	for r := 0; r < rounds; r++ {
		for i := 0; i < nvars*21/200; i++ {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 1)
			}
			s.AddClause(cl...)
		}
		as := make([]Lit, 1+rng.Intn(4))
		for i := range as {
			as[i] = MkLit(rng.Intn(nvars), rng.Intn(2) == 1)
		}
		sts = append(sts, s.Solve(as...))
		if after != nil {
			after(r)
		}
	}
	return sts
}

func TestSearchPinnedIncremental(t *testing.T) {
	s := New()
	sts := incrementalRun(s, rand.New(rand.NewSource(2026)), 200, 40, nil)
	// 37 SAT rounds, then UNSAT, SAT, UNSAT under the round's assumptions.
	if got := fmt.Sprint(sts[36:]); got != "[SAT UNSAT SAT UNSAT]" {
		t.Fatalf("last statuses = %s, want [SAT UNSAT SAT UNSAT]", got)
	}
	for i, st := range sts[:36] {
		if st != Sat {
			t.Fatalf("round %d = %v, want SAT", i, st)
		}
	}
	want := Stats{Decisions: 22025, Propagations: 593270, Conflicts: 15190, Restarts: 69, Learnt: 15189}
	if s.Stats != want {
		t.Fatalf("incremental stats = %+v, want %+v", s.Stats, want)
	}
	if got := s.NumClauses(); got != 3809 {
		t.Fatalf("incremental NumClauses = %d, want 3809", got)
	}
}

// checkInvariants walks the clause arena and the watch lists and reports
// the first broken invariant: every watcher refers to a live clause and
// watches the negation of one of its first two literals; every assigned
// variable's reason is a live clause whose first literal is the assigned
// literal; nClauses and learntCount match the arena.
func (s *Solver) checkInvariants() error {
	live := map[int32]bool{}
	clauses, learnts := 0, 0
	for r := int32(0); r < int32(len(s.arena)); r = s.clauseEnd(r) {
		hdr := s.arena[r]
		if hdr&flagDeleted != 0 {
			return fmt.Errorf("clause %d is marked deleted after compaction", r)
		}
		if hdr>>sizeShift < 2 {
			return fmt.Errorf("clause %d has %d literals", r, hdr>>sizeShift)
		}
		live[r] = true
		clauses++
		if hdr&flagLearnt != 0 {
			learnts++
		}
	}
	if clauses != s.nClauses || learnts != s.learntCount {
		return fmt.Errorf("arena holds %d clauses (%d learnt), counters say %d (%d)",
			clauses, learnts, s.nClauses, s.learntCount)
	}
	for l := range s.watches {
		for _, w := range s.watches[l] {
			if !live[w.clauseRef] {
				return fmt.Errorf("watcher on %v refers to %d, not a live clause", Lit(l), w.clauseRef)
			}
			lits := s.clauseLits(w.clauseRef)
			if Lit(l) != lits[0].Not() && Lit(l) != lits[1].Not() {
				return fmt.Errorf("watcher on %v of clause %d %v watches neither of its first two literals",
					Lit(l), w.clauseRef, lits)
			}
		}
	}
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		if r < 0 {
			continue
		}
		if !live[r] {
			return fmt.Errorf("reason %d of %v is not a live clause", r, l)
		}
		if first := s.clauseLits(r)[0]; first != l {
			return fmt.Errorf("reason %d of %v starts with %v", r, l, first)
		}
	}
	return nil
}

func TestArenaInvariantsIncremental(t *testing.T) {
	s := New()
	reductions := 0
	s.onReduce = func() {
		reductions++
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("after reduction %d: %v", reductions, err)
		}
	}
	incrementalRun(s, rand.New(rand.NewSource(99)), 200, 50, func(round int) {
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("after round %d: %v", round, err)
		}
	})
	if reductions == 0 {
		t.Fatal("the run never reduced the learnt clauses")
	}
}
