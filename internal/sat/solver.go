// Package sat implements a CDCL (conflict-driven clause learning) Boolean
// satisfiability solver in the MiniSat tradition: two-literal watches,
// VSIDS variable activity, first-UIP conflict analysis with clause
// minimization, phase saving, Luby restarts, and learned-clause database
// reduction. It is the verification engine behind SAT sweeping.
package sat

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Lit is a solver literal: 2*variable + sign, where sign 1 means negated.
type Lit int32

// MkLit builds a literal from a zero-based variable index.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// IsNeg reports whether the literal is negated.
func (l Lit) IsNeg() bool { return l&1 != 0 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.IsNeg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

const (
	valueUnassigned int8 = -1
	valueFalse      int8 = 0
	valueTrue       int8 = 1
)

// Clause arena layout. Every clause lives in one []Lit arena as a header
// followed by its literals, and a clause ref is the offset of its header:
//
//	word 0     size<<sizeShift | flagDeleted | flagLearnt
//	word 1     LBD; during compaction, the clause's new offset (-1 if deleted)
//	words 2–3  activity, a float64 split into its low and high 32 bits
const (
	hdrWords    = 4
	sizeShift   = 2
	flagLearnt  = 1
	flagDeleted = 2
)

type watcher struct {
	clauseRef int32
	blocker   Lit
}

// Stats counts solver work, exposed for the sweeping instrumentation.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena       []Lit       // clause headers and literals; see hdrWords
	nClauses    int         // live clauses in the arena (problem + learnt)
	learntCount int         // live learnt clauses in the arena
	watches     [][]watcher // indexed by literal

	vals     []int8 // indexed by literal
	level    []int32
	reason   []int32 // clause ref or -1
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap
	phase    []bool

	claInc    float64
	maxLearnt float64

	seen       []bool
	analyzeTo  []Lit
	toClear    []Lit   // analyze: literals whose seen bit must be reset
	levelStamp []int64 // analyze: per-level stamp for counting the LBD
	stamp      int64
	addTmp     []Lit // AddClause: sorted copy of the input literals

	// ConflictBudget, when positive, bounds the number of conflicts per
	// Solve call; exceeding it yields Unknown.
	ConflictBudget int64

	// PropagationBudget, when positive, bounds the number of unit
	// propagations per Solve call; exceeding it yields Unknown. It is the
	// wall-clock-proportional budget (propagations dominate runtime),
	// complementing ConflictBudget's difficulty-proportional one.
	PropagationBudget int64

	// interrupted is an asynchronous stop request, safe to set from another
	// goroutine (Interrupt). Solve polls it every interruptCheckEvery
	// propagations and returns Unknown promptly once it is set. The flag is
	// sticky: it stays set (and keeps Solve returning Unknown) until
	// ClearInterrupt.
	interrupted atomic.Bool

	Stats Stats

	// onLearn, when set, observes every learnt clause (testing hook).
	onLearn func([]Lit)
	// onReduce, when set, runs after every learnt-clause reduction that
	// deleted clauses (testing hook).
	onReduce func()

	unsat bool // set when the clause set is trivially contradictory
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		varInc: 1.0,
		claInc: 1.0,
	}
	s.order = newVarHeap(&s.activity)
	return s
}

// NumVars returns the number of variables created.
func (s *Solver) NumVars() int { return len(s.level) }

// NewVar creates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.vals = append(s.vals, valueUnassigned, valueUnassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

func (s *Solver) litValue(l Lit) int8 { return s.vals[l] }

// clauseEnd returns the arena offset just past the clause at ref, which is
// the ref of the next clause.
func (s *Solver) clauseEnd(ref int32) int32 {
	return ref + hdrWords + int32(s.arena[ref]>>sizeShift)
}

// clauseLits returns the literals of the clause at ref, aliasing the arena.
func (s *Solver) clauseLits(ref int32) []Lit { return s.arena[ref+hdrWords : s.clauseEnd(ref)] }

func (s *Solver) clauseActivity(ref int32) float64 {
	return math.Float64frombits(uint64(uint32(s.arena[ref+2])) | uint64(uint32(s.arena[ref+3]))<<32)
}

func (s *Solver) setClauseActivity(ref int32, a float64) {
	b := math.Float64bits(a)
	s.arena[ref+2], s.arena[ref+3] = Lit(uint32(b)), Lit(uint32(b>>32))
}

// AddClause adds a clause at decision level 0. It returns false when the
// formula became trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	// Sort, dedup, drop false literals, detect tautologies and satisfied
	// clauses.
	s.addTmp = append(s.addTmp[:0], lits...)
	slices.Sort(s.addTmp)
	out := s.addTmp[:0]
	var prev Lit = -1
	for _, l := range s.addTmp {
		if int(l.Var()) >= s.NumVars() {
			panic(fmt.Sprintf("sat: literal %v references unknown variable", l))
		}
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology
		}
		switch s.litValue(l) {
		case valueTrue:
			return true // already satisfied
		case valueFalse:
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], -1)
		if s.propagate() >= 0 {
			s.unsat = true
			return false
		}
		return true
	}
	s.attachClause(out, false, 0)
	return true
}

// attachClause copies a clause of at least two literals into the arena and
// watches its first two literals. It returns the clause ref.
func (s *Solver) attachClause(lits []Lit, learnt bool, lbd int32) int32 {
	ref := int32(len(s.arena))
	hdr := Lit(len(lits) << sizeShift)
	if learnt {
		hdr |= flagLearnt
		s.learntCount++
	}
	s.arena = append(s.arena, hdr, Lit(lbd), 0, 0)
	s.arena = append(s.arena, lits...)
	s.nClauses++
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{ref, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{ref, lits[0]})
	return ref
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from int32) {
	v := l.Var()
	s.vals[l] = valueTrue
	s.vals[l^1] = valueFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the ref of a conflicting
// clause or -1.
func (s *Solver) propagate() int32 {
	vals, arena := s.vals, s.arena
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		falseLit := p ^ 1

		// Watchers that stay on p are compacted in place: ws[:j] is kept.
		ws := s.watches[p]
		j := 0
		conflict := int32(-1)
	next:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if vals[w.blocker] == valueTrue {
				ws[j] = w
				j++
				continue
			}
			lo := w.clauseRef + hdrWords
			lits := arena[lo : lo+int32(arena[w.clauseRef]>>sizeShift)]
			// Ensure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == valueTrue {
				ws[j] = watcher{w.clauseRef, first}
				j++
				continue
			}
			// Search a new watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != valueFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1]^1] = append(s.watches[lits[1]^1], watcher{w.clauseRef, first})
					continue next
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.clauseRef, first}
			j++
			if vals[first] == valueFalse {
				conflict = w.clauseRef
				// Keep the remaining watchers and stop.
				j += copy(ws[j:], ws[i+1:])
				s.qhead = len(s.trail)
				break
			}
			s.uncheckedEnqueue(first, w.clauseRef)
		}
		s.watches[p] = ws[:j]
		if conflict >= 0 {
			return conflict
		}
	}
	return -1
}

// analyze performs first-UIP learning; it fills s.analyzeTo with the learnt
// clause (asserting literal first) and returns the backtrack level and the
// clause LBD.
func (s *Solver) analyze(confl int32) (int, int32) {
	s.analyzeTo = append(s.analyzeTo[:0], 0) // placeholder for the UIP
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if s.arena[confl]&flagLearnt != 0 {
			s.bumpClause(confl)
		}
		lits := s.clauseLits(confl)
		if p != -1 {
			lits = lits[1:]
		}
		for _, q := range lits {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				pathC++
			} else {
				s.analyzeTo = append(s.analyzeTo, q)
			}
		}
		// Select next literal on the trail to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	s.analyzeTo[0] = p.Not()

	// Clause minimization: drop literals implied by the rest. The seen bits
	// mark exactly analyzeTo[1:] here. The UIP needs no mark: it sits at the
	// conflict level, and the reason of a lower-level literal holds only
	// literals of that level or below.
	s.toClear = append(s.toClear[:0], s.analyzeTo...)
	out := s.analyzeTo[:1]
	for _, l := range s.analyzeTo[1:] {
		r := s.reason[l.Var()]
		if r < 0 {
			out = append(out, l)
			continue
		}
		redundant := true
		for _, q := range s.clauseLits(r) {
			if q.Var() == l.Var() {
				continue
			}
			if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			out = append(out, l)
		}
	}
	s.analyzeTo = out

	// Clear seen flags, including literals dropped by minimization — stale
	// seen bits would silently drop literals from future learnt clauses.
	for _, l := range s.toClear {
		s.seen[l.Var()] = false
	}

	// Compute backtrack level and LBD (the number of distinct levels).
	btLevel := 0
	if len(s.analyzeTo) > 1 {
		maxI := 1
		for i := 2; i < len(s.analyzeTo); i++ {
			if s.level[s.analyzeTo[i].Var()] > s.level[s.analyzeTo[maxI].Var()] {
				maxI = i
			}
		}
		s.analyzeTo[1], s.analyzeTo[maxI] = s.analyzeTo[maxI], s.analyzeTo[1]
		btLevel = int(s.level[s.analyzeTo[1].Var()])
	}
	for len(s.levelStamp) <= s.decisionLevel() {
		s.levelStamp = append(s.levelStamp, 0)
	}
	s.stamp++
	lbd := int32(0)
	for _, l := range s.analyzeTo {
		if lv := s.level[l.Var()]; s.levelStamp[lv] != s.stamp {
			s.levelStamp[lv] = s.stamp
			lbd++
		}
	}
	return btLevel, lbd
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayVar() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(ref int32) {
	a := s.clauseActivity(ref) + s.claInc
	s.setClauseActivity(ref, a)
	if a > 1e20 {
		for r := int32(0); r < int32(len(s.arena)); r = s.clauseEnd(r) {
			if s.arena[r]&flagLearnt != 0 {
				s.setClauseActivity(r, s.clauseActivity(r)*1e-20)
			}
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= 0.999 }

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.IsNeg()
		s.vals[l] = valueUnassigned
		s.vals[l^1] = valueUnassigned
		s.reason[v] = -1
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.vals[MkLit(v, false)] == valueUnassigned {
			return v
		}
	}
}

// reduceDB removes the less active half of the learned clauses.
func (s *Solver) reduceDB() {
	type entry struct {
		ref int32
		act float64
		lbd int32
	}
	var learnts []entry
	for r := int32(0); r < int32(len(s.arena)); r = s.clauseEnd(r) {
		if s.arena[r]&flagLearnt != 0 && s.arena[r]>>sizeShift > 2 {
			learnts = append(learnts, entry{r, s.clauseActivity(r), int32(s.arena[r+1])})
		}
	}
	sort.Slice(learnts, func(i, j int) bool {
		if learnts[i].lbd != learnts[j].lbd {
			return learnts[i].lbd > learnts[j].lbd
		}
		return learnts[i].act < learnts[j].act
	})
	removed := 0
	for _, e := range learnts[:len(learnts)/2] {
		if s.locked(e.ref) {
			continue
		}
		s.arena[e.ref] |= flagDeleted
		removed++
	}
	if removed == 0 {
		return
	}
	s.compact()
	if s.onReduce != nil {
		s.onReduce()
	}
}

// locked reports whether a clause is the reason of a current assignment.
func (s *Solver) locked(ref int32) bool {
	first := s.arena[ref+hdrWords]
	return s.reason[first.Var()] == ref && s.vals[first] != valueUnassigned
}

// compact copies the live clauses, in order, into a fresh arena. Each old
// header's word 1 receives its clause's new offset (-1 when the clause is
// deleted), and reasons and watches are remapped through those offsets.
func (s *Solver) compact() {
	old := s.arena
	s.arena = make([]Lit, 0, len(old))
	for r := 0; r < len(old); {
		hdr := old[r]
		n := hdrWords + int(hdr>>sizeShift)
		if hdr&flagDeleted != 0 {
			old[r+1] = -1
			s.nClauses--
			if hdr&flagLearnt != 0 {
				s.learntCount--
			}
		} else {
			to := Lit(len(s.arena))
			s.arena = append(s.arena, old[r:r+n]...)
			old[r+1] = to
		}
		r += n
	}
	for v, r := range s.reason {
		if r >= 0 {
			s.reason[v] = int32(old[r+1])
		}
	}
	for l := range s.watches {
		ws := s.watches[l][:0]
		for _, w := range s.watches[l] {
			if to := old[w.clauseRef+1]; to >= 0 {
				ws = append(ws, watcher{int32(to), w.blocker})
			}
		}
		s.watches[l] = ws
	}
}

// interruptCheckEvery is how many propagations pass between polls of the
// interrupt flag and the propagation budget inside Solve. Polling an atomic
// this often costs well under 1% of solve time while bounding the response
// latency to an interrupt by a few microseconds of propagation work.
const interruptCheckEvery = 1024

// Interrupt asynchronously requests that the current (and any subsequent)
// Solve call stop and return Unknown. It is safe to call from another
// goroutine; the flag is sticky until ClearInterrupt.
func (s *Solver) Interrupt() { s.interrupted.Store(true) }

// SetBudget sets both per-call budgets at once (0 = unlimited) — the one
// call a proof engine needs per Solve.
func (s *Solver) SetBudget(conflicts, propagations int64) {
	s.ConflictBudget = conflicts
	s.PropagationBudget = propagations
}

// ClearInterrupt re-arms the solver after an Interrupt.
func (s *Solver) ClearInterrupt() { s.interrupted.Store(false) }

// Interrupted reports whether an interrupt is pending.
func (s *Solver) Interrupted() bool { return s.interrupted.Load() }

// WatchContext interrupts the solver as soon as ctx is cancelled or its
// deadline passes. It returns a stop function that releases the watcher
// goroutine; callers must invoke it (typically via defer) when the solving
// phase ends. The interrupt flag is NOT cleared by stop — a cancelled
// context leaves the solver interrupted, so later Solve calls keep
// returning Unknown, which is what an abandoned run wants.
func (s *Solver) WatchContext(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			// When cancellation and stop race (both channels ready before
			// this goroutine was scheduled), stop wins: the solving phase
			// is already over and must not be poisoned retroactively.
			select {
			case <-quit:
				return
			default:
			}
			s.Interrupt()
		case <-quit:
		}
	}()
	return func() { close(quit) }
}

// luby computes the Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(x int64) int64 {
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << uint(seq)
}

// Solve searches for a model under the given assumptions. It returns Sat,
// Unsat, or Unknown when the conflict or propagation budget is exhausted or
// the solver is interrupted (Interrupt / WatchContext).
func (s *Solver) Solve(assumptions ...Lit) Status {
	if s.unsat {
		return Unsat
	}
	if s.interrupted.Load() {
		return Unknown
	}
	s.cancelUntil(0)
	if s.propagate() >= 0 {
		s.unsat = true
		return Unsat
	}

	restartBase := int64(100)
	var restartNum int64
	conflictsAtStart := s.Stats.Conflicts
	propsAtStart := s.Stats.Propagations
	nextPoll := s.Stats.Propagations + interruptCheckEvery
	conflictLimit := restartBase * luby(restartNum)
	conflictsThisRestart := int64(0)
	if s.maxLearnt == 0 {
		s.maxLearnt = math.Max(1000, float64(s.nClauses)/3)
	}

	for {
		if s.Stats.Propagations >= nextPoll {
			nextPoll = s.Stats.Propagations + interruptCheckEvery
			if s.interrupted.Load() ||
				(s.PropagationBudget > 0 && s.Stats.Propagations-propsAtStart >= s.PropagationBudget) {
				s.cancelUntil(0)
				return Unknown
			}
		}
		confl := s.propagate()
		if confl >= 0 {
			s.Stats.Conflicts++
			conflictsThisRestart++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			btLevel, lbd := s.analyze(confl)
			s.cancelUntil(btLevel)
			learnt := s.analyzeTo
			if s.onLearn != nil {
				s.onLearn(learnt)
			}
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], -1)
			} else {
				ref := s.attachClause(learnt, true, lbd)
				s.Stats.Learnt++
				s.uncheckedEnqueue(learnt[0], ref)
			}
			s.decayVar()
			s.decayClause()
			if s.ConflictBudget > 0 && s.Stats.Conflicts-conflictsAtStart >= s.ConflictBudget {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}

		if conflictsThisRestart >= conflictLimit {
			// Restart.
			s.Stats.Restarts++
			restartNum++
			conflictLimit = restartBase * luby(restartNum)
			conflictsThisRestart = 0
			s.cancelUntil(0)
			continue
		}
		if float64(s.learntCount) > s.maxLearnt {
			s.reduceDB()
			s.maxLearnt *= 1.1
		}

		// Assumption decisions first.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case valueTrue:
				// Already satisfied: open an empty decision level so the
				// index bookkeeping stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case valueFalse:
				s.cancelUntil(0)
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(a, -1)
			continue
		}

		v := s.pickBranchVar()
		if v < 0 {
			return Sat
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(MkLit(v, !s.phase[v]), -1)
	}
}

// Value returns the model value of variable v after Sat.
func (s *Solver) Value(v int) bool { return s.vals[MkLit(v, false)] == valueTrue }

// NumClauses returns the number of stored clauses (problem + learnt).
func (s *Solver) NumClauses() int { return s.nClauses }
