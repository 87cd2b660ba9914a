package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"simgen/internal/chaos"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/prover"
	"simgen/internal/sim"
)

// obligation is one unit of proof work: member m must be proven equal to
// or different from its class representative rep (class index ci).
type obligation struct {
	ci     int
	rep, m network.NodeID
}

// workerState is the private state of one parallel worker: an obligation
// deque (tail for the owner, head for thieves), a counterexample pool that
// amplifies locally and merges in batches, and a Result shard folded into
// the run total after the workers join. Everything here is touched without
// the partition lock except through the scheduler methods that document
// otherwise.
type workerState struct {
	dq   deque
	pool *cexPool
	res  Result
}

// scheduler is the single sweep loop behind every engine and mode: a set
// of (class, pair) obligations drawn from the partition, consumed by N
// workers (sequential sweeping is workers=1), one shared union-find, one
// Result shape. Engine differences — SAT vs BDD vs portfolio, escalation,
// fallback — live entirely behind prover.Engine.
//
// Sequential runs drain one snapshot cursor under the partition mutex —
// the deterministic, golden-traced path. Parallel runs instead give every
// worker a private obligation deque (stealing from siblings when dry) and
// a private counterexample pool (merged in batches), so the hot claim path
// touches the partition lock once per obligation instead of contending on
// a global queue, pool, and union-find mutex.
type scheduler struct {
	net     *network.Network
	classes *sim.Classes
	opts    Options
	budget  prover.Budget

	// primary is the engine used by sequential runs and worker 0, so its
	// learned state (e.g. SAT equality clauses) survives for later phases
	// like CEC's output checks; factory builds private engines for the
	// remaining workers (nil pins the scheduler to one worker).
	primary prover.Engine
	factory func() prover.Engine

	// tr receives the scheduler's observability events; engines built for
	// this scheduler share it. Never nil (obs.Nop by default).
	tr obs.Tracer

	// inj is the chaos injector consulted at every scheduling decision
	// point; nil outside perturbed parallel runs (the common case).
	inj chaos.Injector

	uf   *unionFind
	pend *pendShared
	pool *cexPool // sequential runs' pool; parallel workers own private pools

	mu      sync.Mutex
	cond    *sync.Cond // signaled whenever claims release or work may appear
	res     Result
	claimed map[network.NodeID]bool // class reps with an obligation in flight
	retries map[pair]int            // requeue counts per degraded pair

	// snap is the current NonSingleton snapshot being drained by a
	// sequential run, with a shared cursor; progress tells refreshes apart
	// from exhausted passes.
	snap     []int
	snapPos  int
	progress bool

	// Parallel-run state. epoch (under mu) counts state transitions that
	// can mint claimable work — claim releases, pool flushes, deque refills
	// — so parked workers can tell a broadcast that changed the world from
	// one that did not. enq dedups obligation hints by representative so
	// the same class is never queued twice across deques. satCalls mirrors
	// the per-shard SATCalls sum for the MaxPairs cutoff without a lock.
	// inHand counts hints a worker popped or stole but has not yet claimed
	// or dropped: such a hint lives in no deque, so without the counter the
	// exit check could see a drained world while claimable work is in hand.
	ws       []*workerState
	enq      []atomic.Bool
	epoch    uint64
	satCalls atomic.Int64
	inHand   atomic.Int32
}

// newScheduler builds a scheduler over the partition. simulator, when
// non-nil, backs the counterexample pool (callers that already compiled an
// arena simulator for the network pass it to avoid a second kernel).
func newScheduler(net *network.Network, classes *sim.Classes, opts Options,
	primary prover.Engine, factory func() prover.Engine, simulator *sim.Simulator) *scheduler {
	tr := obs.OrNop(opts.Tracer)
	primary.SetTracer(tr)
	if opts.Cache != nil {
		if ph, ok := primary.(interface{ SetProber(prover.Prober) }); ok {
			ph.SetProber(opts.Cache)
		}
	}
	if factory != nil {
		inner := factory
		factory = func() prover.Engine {
			e := inner()
			e.SetTracer(tr)
			if opts.Cache != nil {
				if ph, ok := e.(interface{ SetProber(prover.Prober) }); ok {
					ph.SetProber(opts.Cache)
				}
			}
			return e
		}
	}
	pend := newPendShared(net.NumNodes())
	s := &scheduler{
		net:     net,
		classes: classes,
		opts:    opts,
		budget:  prover.Budget{Conflicts: opts.ConflictBudget, Propagations: opts.PropagationBudget},
		primary: primary,
		factory: factory,
		tr:      tr,
		uf:      newUnionFind(net.NumNodes()),
		pend:    pend,
		pool:    newCexPool(net, classes, simulator, pend),
		claimed: make(map[network.NodeID]bool),
		retries: make(map[pair]int),
	}
	s.cond = sync.NewCond(&s.mu)
	s.pool.keep = opts.Cache != nil
	return s
}

// retryLimit resolves Options.RetryLimit: 0 means the default, negative
// disables requeueing.
func (s *scheduler) retryLimit() int {
	switch {
	case s.opts.RetryLimit < 0:
		return 0
	case s.opts.RetryLimit == 0:
		return DefaultRetryLimit
	default:
		return s.opts.RetryLimit
	}
}

// run drains every obligation with the given worker count and returns the
// accumulated result. Sequential runs (workers <= 1) execute on the
// primary engine without panic isolation or chaos injection — injected
// faults must propagate to the caller there, while parallel workers
// convert recovered panics to requeues or unresolved verdicts.
func (s *scheduler) run(ctx context.Context, workers int) Result {
	s.res = Result{}
	s.snap = nil
	s.ws = nil
	s.satCalls.Store(0)
	s.inHand.Store(0)
	start := time.Now()
	s.prePass(ctx)
	if workers <= 1 || s.factory == nil {
		s.tr.Emit(obs.Event{Kind: obs.KindSweepStart, Workers: 1})
		func() {
			stop := s.primary.Watch(ctx)
			defer stop()
			s.work(ctx, s.primary, 0, false)
		}()
	} else {
		s.tr.Emit(obs.Event{Kind: obs.KindSweepStart, Workers: int32(workers)})
		s.inj = s.opts.Chaos
		// Cancellation must reach workers parked on the idle condition
		// variable, not only those inside engine calls.
		stopWake := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer stopWake()
		// Warm the shared caches that are lazily built and not
		// goroutine-safe: covers (row tables / CNF cubes) and
		// fanout/level data.
		for id := 0; id < s.net.NumNodes(); id++ {
			s.net.Covers(network.NodeID(id))
		}
		s.net.Fanouts(0)
		s.runParallel(ctx, workers)
	}
	s.mu.Lock()
	s.flushPool(&s.res)
	s.finish(ctx)
	s.mu.Unlock()
	s.tr.Emit(obs.Event{Kind: obs.KindSweepDone,
		Cost: int64(s.res.FinalCost), Dur: time.Since(start)})
	return s.res
}

// prePass is the incremental-mode pre-pass: when Options.TFOMask marks the
// transitive fanout of a base-circuit diff and a cache is attached, every
// candidate pair with both endpoints outside the mask is untouched logic
// and is settled from the cache alone — an Equal hit merges immediately, a
// Differ hit or a miss drops the member from its class — so the
// obligations that reach the workers are exactly those touching the edit.
// Soundness never rests on the mask: cache verdicts are revalidated
// against the current network by the prober before they are acted on.
// Runs single-threaded before any worker starts.
func (s *scheduler) prePass(ctx context.Context) {
	if s.opts.Cache == nil || len(s.opts.TFOMask) == 0 {
		return
	}
	mask := s.opts.TFOMask
	in := func(id network.NodeID) bool {
		return int(id) < len(mask) && mask[id]
	}
	for _, ci := range s.classes.NonSingleton() {
		members := s.classes.Members(ci)
		if len(members) < 2 {
			continue
		}
		rep := members[0]
		if in(rep) {
			// The representative is in the edit's fanout; every pair of this
			// class touches it, so the whole class stays scheduled.
			continue
		}
		for _, m := range members[1:] {
			if in(m) {
				continue
			}
			cp := s.opts.Cache.Probe(ctx, rep, m)
			s.res.CacheProbes++
			if cp.RevalFailed {
				s.res.CacheRevalFails++
			}
			if cp.Hit {
				s.res.CacheHits++
				if cp.Verdict == prover.Equal {
					if cm := s.classes.ClassOf(m); cm >= 0 && cm == s.classes.ClassOf(rep) {
						s.uf.union(rep, m)
						s.classes.Remove(m)
					}
					s.res.CacheMerged++
					continue
				}
			} else {
				s.res.CacheMisses++
			}
			// Differ hit or cache miss: outside the edit's fanout there is
			// nothing new to prove, so the member leaves its class rather
			// than becoming an obligation.
			s.classes.Remove(m)
			s.res.CacheSkipped++
		}
	}
}

// runParallel seeds the worker deques from the initial partition, runs the
// workers to completion, merges every leftover private pool, and folds the
// per-worker Result shards into the run total.
func (s *scheduler) runParallel(ctx context.Context, workers int) {
	s.enq = make([]atomic.Bool, s.net.NumNodes())
	s.ws = make([]*workerState, workers)
	for i := range s.ws {
		// Private pools share the sequential pool's simulator: flushes are
		// serialized under mu, and amplification never touches it.
		s.ws[i] = &workerState{pool: newCexPool(s.net, s.classes, s.pool.sim, s.pend)}
		s.ws[i].pool.keep = s.opts.Cache != nil
	}
	// Seed the deques round-robin before any worker starts; claims
	// re-validate against fresh state, so the seeding order is free to be
	// arbitrary.
	seeded := 0
	for _, ci := range s.classes.NonSingleton() {
		members := s.classes.Members(ci)
		if len(members) < 2 {
			continue
		}
		rep := members[0]
		if !s.enq[rep].CompareAndSwap(false, true) {
			continue
		}
		s.ws[seeded%workers].dq.push(hint{ci: ci, rep: int32(rep)})
		seeded++
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		eng := s.primary
		if i > 0 {
			eng = s.factory()
		}
		if s.inj != nil {
			eng = prover.WithChaos(eng, s.inj, s.tr)
		}
		wg.Add(1)
		go func(w *workerState, eng prover.Engine, wid int32) {
			defer wg.Done()
			stop := eng.Watch(ctx)
			defer stop()
			s.workPar(ctx, w, eng, wid)
		}(s.ws[i], eng, int32(i))
	}
	wg.Wait()
	s.mu.Lock()
	// Workers flush their pools before exiting cleanly, but cancellation
	// (and UnsafeStaleExit) can leave buffered batches behind; merge them
	// so the partial result still reflects every counterexample.
	for i, w := range s.ws {
		s.flushWorkerLocked(w, int32(i))
	}
	for _, w := range s.ws {
		s.res.add(w.res)
	}
	s.mu.Unlock()
}

// work is the sequential loop: claim an obligation, prove it, fold the
// verdict into the shared state, repeat until the queue runs dry.
func (s *scheduler) work(ctx context.Context, eng prover.Engine, wid int32, isolate bool) {
	for ctx.Err() == nil {
		ob, ok := s.next(ctx, wid)
		if !ok {
			return
		}
		s.process(ctx, eng, wid, ob, isolate)
	}
}

// workPar is the parallel per-worker loop over the worker's deque, the
// steal targets, and the global refill/park protocol.
func (s *scheduler) workPar(ctx context.Context, w *workerState, eng prover.Engine, wid int32) {
	for ctx.Err() == nil {
		ob, ok := s.nextPar(ctx, w, wid)
		if !ok {
			return
		}
		s.processPar(ctx, w, eng, wid, ob)
	}
}

// process proves one obligation. With isolate set, an engine panic is
// recovered and the obligation requeued for a bounded number of retries
// before it is dropped as unresolved, so one poisoned worker cannot take
// down a parallel sweep.
func (s *scheduler) process(ctx context.Context, eng prover.Engine, wid int32, ob obligation, isolate bool) {
	defer s.release(ob.rep)
	if isolate {
		defer func() {
			if r := recover(); r != nil {
				s.mu.Lock()
				s.res.WorkerPanics++
				n, requeued := s.tryRequeue(ob, &s.res)
				if !requeued {
					s.res.Unresolved++
					s.classes.Remove(ob.m)
				}
				s.mu.Unlock()
				s.tr.Emit(obs.Event{Kind: obs.KindWorkerPanic, Worker: wid,
					Class: int32(ob.ci), A: int32(ob.rep), B: int32(ob.m),
					Retries: int32(n)})
			}
		}()
	}
	s.perturb(chaos.PointClaim, wid, int32(ob.rep), int32(ob.m))
	pr := eng.Prove(ctx, ob.rep, ob.m, s.budget)
	s.perturb(chaos.PointResolve, wid, int32(ob.rep), int32(ob.m))
	if s.apply(ctx, wid, ob, pr) {
		eng.Learn(ob.rep, ob.m)
	}
}

// processPar proves one obligation on a parallel worker. Engine panics are
// recovered and the obligation requeued for a bounded number of retries
// before it is dropped as unresolved, so one poisoned worker cannot take
// down the sweep.
func (s *scheduler) processPar(ctx context.Context, w *workerState, eng prover.Engine, wid int32, ob obligation) {
	defer s.releasePar(w, ob)
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			w.res.WorkerPanics++
			n, requeued := s.tryRequeue(ob, &w.res)
			if !requeued {
				w.res.Unresolved++
				s.classes.Remove(ob.m)
			}
			s.mu.Unlock()
			s.tr.Emit(obs.Event{Kind: obs.KindWorkerPanic, Worker: wid,
				Class: int32(ob.ci), A: int32(ob.rep), B: int32(ob.m),
				Retries: int32(n)})
		}
	}()
	s.perturbPar(chaos.PointClaim, w, wid, int32(ob.rep), int32(ob.m))
	pr := eng.Prove(ctx, ob.rep, ob.m, s.budget)
	s.perturbPar(chaos.PointResolve, w, wid, int32(ob.rep), int32(ob.m))
	if s.applyPar(ctx, w, wid, ob, pr) {
		eng.Learn(ob.rep, ob.m)
	}
}

// next claims the next obligation under the partition lock. It drains a
// NonSingleton snapshot with a shared cursor; when the snapshot runs dry
// it is refreshed (splits create classes a stale snapshot cannot see).
//
// Termination is decided against fresh state, never a drained snapshot:
// the queue is empty only when a fresh scan finds nothing claimable, no
// counterexamples are pending, and no obligation is in flight. In-flight
// obligations can mint new work — an Equal verdict leaves its class
// non-singleton, a Differ refills the pool — so as long as any claim is
// held, idle workers park on the condition variable instead of exiting
// (the stale-snapshot exit was the PR 4 missed-merge race; see
// Options.UnsafeStaleExit and DESIGN.md 3.11).
func (s *scheduler) next(ctx context.Context, wid int32) (obligation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return obligation{}, false
		}
		if s.opts.MaxPairs > 0 && s.res.SATCalls >= s.opts.MaxPairs {
			s.res.Incomplete = true
			return obligation{}, false
		}
		if s.snap == nil {
			s.snap = s.classes.NonSingleton()
			s.snapPos = 0
			s.progress = false
		}
		for s.snapPos < len(s.snap) {
			ci := s.snap[s.snapPos]
			members := s.classes.Members(ci)
			if len(members) < 2 {
				s.snapPos++
				continue
			}
			rep := members[0]
			if s.claimed[rep] {
				s.snapPos++
				continue
			}
			m := members[1]
			if s.pend.touches(rep, m) {
				// Membership is stale under pending counterexamples:
				// refine first, then re-read this class.
				s.perturbLocked(chaos.PointFlush, wid, int32(rep), int32(m))
				s.flushPool(&s.res)
				continue
			}
			s.claimed[rep] = true
			s.progress = true
			s.res.Scheduled++
			retries := int32(s.retries[pair{rep, m}])
			if retries > 0 {
				s.res.Retried++
			}
			s.tr.Emit(obs.Event{Kind: obs.KindObligation, Worker: wid,
				Class: int32(ci), A: int32(rep), B: int32(m),
				Pending: int32(len(s.snap) - s.snapPos), Retries: retries})
			// The cursor stays on ci: a sequential worker returns straight
			// to the same class until it is settled.
			return obligation{ci: ci, rep: rep, m: m}, true
		}
		if !s.progress {
			switch {
			case !s.pool.empty():
				// Pending counterexamples may split classes back above the
				// singleton threshold; flush and rescan.
				s.flushPool(&s.res)
			case s.opts.UnsafeStaleExit:
				// Test-only: the pre-fix protocol exited here, trusting a
				// snapshot other workers may have drained and reset while
				// this worker's last merge was still in flight.
				return obligation{}, false
			case s.claimable():
				// The drained snapshot went stale while other workers
				// mutated the partition; rescan fresh instead of exiting.
			case len(s.claimed) > 0:
				// In-flight obligations can still mint work; sleep until a
				// claim is released rather than spin or exit early.
				s.wait(wid)
			default:
				return obligation{}, false
			}
		}
		s.snap = nil
	}
}

// nextPar claims the next obligation for a parallel worker. The fast path
// touches only the worker's own deque (plus one partition-lock hop in
// claimHint to validate the hint); when the deque runs dry the worker
// steals from a sibling, and only when every deque is dry does it enter
// the global phase: merge its private counterexample batch, refill its
// deque from a fresh partition scan, park while work is in flight
// elsewhere, or exit.
//
// Termination follows the PR 6 fresh-state protocol, restated for
// stealing: a worker exits only after (1) its own pool is flushed, (2) a
// scan of fresh partition state enqueued nothing, and (3) no claim is
// held, no counterexample is pending in any pool, no hint is in any
// worker's hand, and every deque is empty. While (3) fails the worker
// parks on the condition variable, keyed to the epoch counter so a wakeup
// that changed nothing goes back to sleep. Every transition that can mint
// claimable work — a claim release, a pool flush, a refill — bumps the
// epoch and broadcasts, so a parked worker cannot miss the wakeup between
// its check and its sleep (both happen under mu).
//
// The MaxPairs cutoff is the one exit that bypasses (1)–(3): the budget
// exhausting is terminal and monotone, so the exiting worker bumps the
// epoch to unpark siblings, the park predicate re-checks the cutoff before
// every sleep, and leftover pools and deque hints are deliberately
// abandoned to runParallel's final merge.
func (s *scheduler) nextPar(ctx context.Context, w *workerState, wid int32) (obligation, bool) {
	for {
		if ctx.Err() != nil {
			return obligation{}, false
		}
		if s.cutoff() {
			s.mu.Lock()
			w.res.Incomplete = true
			// Terminal state transition: without the epoch bump a sibling
			// parked since the last real transition would wake from the
			// broadcast, see this worker's abandoned pool or deque as work
			// in flight, and sleep forever with no one left to wake it.
			s.epoch++
			s.cond.Broadcast()
			s.mu.Unlock()
			return obligation{}, false
		}
		// A popped or stolen hint lives in no deque until claimHint settles
		// it; count it so siblings running the exit check keep treating it
		// as work in flight instead of taking the clean-exit path and
		// leaving the rest of the sweep to this one worker.
		s.inHand.Add(1)
		h, ok := w.dq.pop()
		if !ok {
			h, ok = s.stealWork(w, wid)
		}
		if ok {
			ob, claimed := s.claimHint(w, wid, h)
			// Decremented only after claimHint registered the claim (or
			// released the hint's enq slot) under mu, so the work never
			// vanishes from every predicate at once.
			s.inHand.Add(-1)
			if claimed {
				return ob, true
			}
			continue
		}
		s.inHand.Add(-1)
		// Every deque this worker can see is dry: enter the global phase.
		s.mu.Lock()
		if ctx.Err() != nil {
			s.mu.Unlock()
			return obligation{}, false
		}
		if !w.pool.empty() {
			s.flushWorkerLocked(w, wid)
			s.mu.Unlock()
			continue
		}
		if s.opts.UnsafeStaleExit {
			// Test-only: the pre-fix protocol trusted its drained queue and
			// exited here without the fresh rescan or the park — abandoning
			// any class a pool flush split after the queues were seeded.
			s.mu.Unlock()
			return obligation{}, false
		}
		if s.refillLocked(w, wid) > 0 {
			s.mu.Unlock()
			continue
		}
		if s.workInFlightLocked() {
			e := s.epoch
			for s.epoch == e && ctx.Err() == nil && !s.cutoff() && s.workInFlightLocked() {
				s.wait(wid)
			}
			s.mu.Unlock()
			continue
		}
		// Fresh state holds no work and nothing can mint more: wake any
		// parked sibling so it re-evaluates and exits too.
		s.cond.Broadcast()
		s.mu.Unlock()
		return obligation{}, false
	}
}

// cutoff reports whether the MaxPairs SAT-call budget is exhausted. It is
// monotone — satCalls only grows — so once a worker observes it, every
// later check by any worker observes it too, which is what lets the
// cutoff exit skip the usual drain-everything termination protocol.
func (s *scheduler) cutoff() bool {
	return s.opts.MaxPairs > 0 && int(s.satCalls.Load()) >= s.opts.MaxPairs
}

// claimHint validates one deque hint against fresh partition state and
// claims the obligation it points at. A hint is only a rumor: the class
// may have gone singleton, its representative may already be claimed, or
// its membership may be stale under a pending counterexample — in which
// case the worker merges its own batch (the usual blocker is a pair this
// worker just disproved) and re-reads once before giving the hint up.
// Dropped hints are not lost work: the class stays discoverable through
// the fresh rescans of the refill path.
func (s *scheduler) claimHint(w *workerState, wid int32, h hint) (obligation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enq[h.rep].Store(false)
	members := s.classes.Members(h.ci)
	if len(members) < 2 {
		return obligation{}, false
	}
	rep, m := members[0], members[1]
	if s.claimed[rep] {
		return obligation{}, false
	}
	if s.pend.touches(rep, m) {
		if w.pool.empty() {
			return obligation{}, false
		}
		s.perturbLockedPar(chaos.PointFlush, w, wid, int32(rep), int32(m))
		s.flushWorkerLocked(w, wid)
		members = s.classes.Members(h.ci)
		if len(members) < 2 {
			return obligation{}, false
		}
		rep, m = members[0], members[1]
		if s.claimed[rep] || s.pend.touches(rep, m) {
			return obligation{}, false
		}
	}
	s.claimed[rep] = true
	w.res.Scheduled++
	retries := int32(s.retries[pair{rep, m}])
	if retries > 0 {
		w.res.Retried++
	}
	s.tr.Emit(obs.Event{Kind: obs.KindObligation, Worker: wid,
		Class: int32(h.ci), A: int32(rep), B: int32(m),
		Pending: int32(w.dq.size()), Retries: retries})
	return obligation{ci: h.ci, rep: rep, m: m}, true
}

// stealWork takes a batch of hints from the first non-empty sibling deque,
// keeps the newest stolen hint for immediate claiming, and moves the rest
// into the thief's own deque. Victim order rotates with the thief's id so
// sixteen dry workers do not all mob worker 0.
func (s *scheduler) stealWork(w *workerState, wid int32) (hint, bool) {
	n := len(s.ws)
	for i := 1; i < n; i++ {
		v := (int(wid) + i) % n
		batch := s.ws[v].dq.stealHalf()
		if len(batch) == 0 {
			continue
		}
		w.res.Steals++
		s.tr.Emit(obs.Event{Kind: obs.KindSteal, Worker: wid,
			A: int32(v), Pending: int32(len(batch))})
		s.perturbPar(chaos.PointSteal, w, wid, int32(v), int32(len(batch)))
		h := batch[len(batch)-1]
		w.dq.pushAll(batch[:len(batch)-1])
		return h, true
	}
	return hint{}, false
}

// refillLocked rescans fresh partition state and enqueues every claimable
// class that no deque already advertises — into this worker's own deque
// only, so a hint can never strand in the deque of a worker that has
// exited (a non-empty deque always has a live owner). The caller holds
// mu. Returns the number of hints enqueued.
func (s *scheduler) refillLocked(w *workerState, wid int32) int {
	n := 0
	for _, ci := range s.classes.NonSingleton() {
		members := s.classes.Members(ci)
		if len(members) < 2 {
			continue
		}
		rep := members[0]
		if s.claimed[rep] || s.pend.touches(rep, members[1]) {
			continue
		}
		if !s.enq[rep].CompareAndSwap(false, true) {
			continue
		}
		w.dq.push(hint{ci: ci, rep: int32(rep)})
		n++
	}
	if n > 0 {
		// Fresh work appeared: parked siblings can steal it.
		s.epoch++
		s.cond.Broadcast()
	}
	return n
}

// workInFlightLocked reports whether any in-flight state can still mint
// claimable work: a held claim (its release may re-enqueue the class), a
// pending counterexample in any pool (its flush may split classes), a
// hint in a worker's hand (popped or stolen but not yet claimed — it is
// in no deque during that window), or a non-empty deque (its owner or a
// thief will drain it). The caller holds mu. Parked workers always have
// an empty deque, a flushed pool, and no hint in hand, so any of those
// belongs to an active worker that will settle it — parking on this
// predicate cannot deadlock.
func (s *scheduler) workInFlightLocked() bool {
	if len(s.claimed) > 0 || s.pend.pairs.Load() > 0 {
		return true
	}
	for _, ws := range s.ws {
		if ws.dq.size() > 0 {
			return true
		}
	}
	// Checked after the deques, not before: a hint is counted in hand
	// before it leaves its deque, so a hint this scan missed in every
	// deque is visible here (the deque locks order the loads), and it
	// cannot be settled out of the counter while this caller holds mu —
	// settling goes through claimHint, which needs mu.
	return s.inHand.Load() > 0
}

// claimable reports whether a fresh partition scan holds any unclaimed
// obligation; the caller holds mu and has drained the pool.
func (s *scheduler) claimable() bool {
	for _, ci := range s.classes.NonSingleton() {
		members := s.classes.Members(ci)
		if len(members) >= 2 && !s.claimed[members[0]] {
			return true
		}
	}
	return false
}

// wait parks an idle worker until shared state changes; the caller holds
// mu. A chaos injector may convert the sleep into a spurious wakeup.
func (s *scheduler) wait(wid int32) {
	if s.inj != nil {
		switch act := s.inj.At(chaos.PointWait, -1, -1); act {
		case chaos.ActWake, chaos.ActYield:
			// Spurious wakeup: wake every parked worker, skip our own
			// sleep once, and rescan.
			s.cond.Broadcast()
			s.emitPerturb(chaos.PointWait, act, wid, -1, -1)
			return
		}
	}
	s.cond.Wait()
}

// release returns a claimed representative to the queue and wakes idle
// workers: a released claim is exactly the state change a parked worker is
// waiting to rescan.
func (s *scheduler) release(rep network.NodeID) {
	s.mu.Lock()
	delete(s.claimed, rep)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// releasePar releases a parallel worker's claim and pushes a follow-up
// hint when the obligation's class still holds work — straight into the
// worker's own deque, so a settled-but-unfinished class is re-claimed with
// zero rescans. Classes blocked by a pending counterexample are left for
// the refill path: they become claimable only after a flush, which is
// exactly when a fresh rescan happens.
func (s *scheduler) releasePar(w *workerState, ob obligation) {
	s.mu.Lock()
	delete(s.claimed, ob.rep)
	if members := s.classes.Members(ob.ci); len(members) >= 2 {
		rep := members[0]
		if !s.claimed[rep] && !s.pend.touches(rep, members[1]) &&
			s.enq[rep].CompareAndSwap(false, true) {
			w.dq.push(hint{ci: ob.ci, rep: int32(rep)})
		}
	}
	s.epoch++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// tryRequeue returns ob's pair to the queue after a recoverable failure
// when its retry budget allows, reporting the pair's new retry count; the
// caller holds mu and passes the Result shard the requeue is accounted to.
// The pair stays in its class, so the next fresh scan reissues the
// obligation.
func (s *scheduler) tryRequeue(ob obligation, res *Result) (retries int, ok bool) {
	limit := s.retryLimit()
	pr := pair{ob.rep, ob.m}
	if limit <= 0 || s.retries[pr] >= limit {
		return 0, false
	}
	s.retries[pr]++
	res.Requeued++
	return s.retries[pr], true
}

// apply folds one prover outcome into the shared state; it reports whether
// the verdict was Equal so the caller can teach its engine the equality.
func (s *scheduler) apply(ctx context.Context, wid int32, ob obligation, pr prover.Result) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := pr.Stats
	s.res.Add(st)
	if pr.Verdict == prover.Unknown && pr.Transient && ctx.Err() == nil {
		// A transient (injected) engine failure is not budget exhaustion:
		// requeue the pair for another attempt instead of resolving it.
		if n, ok := s.tryRequeue(ob, &s.res); ok {
			s.tr.Emit(obs.Event{Kind: obs.KindRequeue, Worker: wid,
				Class: int32(ob.ci), A: int32(ob.rep), B: int32(ob.m),
				Retries: int32(n)})
			return false
		}
	}
	s.tr.Emit(obs.Event{Kind: obs.KindResolve, Worker: wid,
		Class: int32(ob.ci), A: int32(ob.rep), B: int32(ob.m),
		Verdict: int8(pr.Verdict), Dur: st.Time})
	switch pr.Verdict {
	case prover.Equal:
		s.perturbLocked(chaos.PointMerge, wid, int32(ob.rep), int32(ob.m))
		// Guard against the pair having been split meanwhile — impossible
		// for a sound engine (a split needs a separating vector), but an
		// unsound verdict (injected faults) must not corrupt the partition
		// invariants.
		if cm := s.classes.ClassOf(ob.m); cm >= 0 && cm == s.classes.ClassOf(ob.rep) {
			s.uf.union(ob.rep, ob.m)
			s.classes.Remove(ob.m)
		}
		s.res.Proved++
		return true
	case prover.Differ:
		s.res.Disproved++
		s.res.CexVectors++
		if s.pool.full() {
			s.flushPool(&s.res)
		}
		s.pool.add(pr.Cex, pair{ob.rep, ob.m})
	default:
		if ctx.Err() != nil {
			// Interrupted, not out of budget: leave the pair in its class
			// so the partial result still reports it as an open candidate.
			s.res.Incomplete = true
			return false
		}
		// Every budget and engine in the portfolio is exhausted: drop the
		// member so the sweep terminates.
		s.classes.Remove(ob.m)
		s.res.Unresolved++
	}
	return false
}

// applyPar folds one prover outcome on a parallel worker. Engine statistics
// and verdict counts land in the worker's private Result shard; only the
// partition mutations (merge, remove) and the requeue bookkeeping take the
// partition lock, and the union-find merge runs on its own stripe locks
// outside mu entirely.
func (s *scheduler) applyPar(ctx context.Context, w *workerState, wid int32, ob obligation, pr prover.Result) bool {
	st := pr.Stats
	w.res.Add(st)
	s.satCalls.Add(int64(st.SATCalls))
	if pr.Verdict == prover.Unknown && pr.Transient && ctx.Err() == nil {
		s.mu.Lock()
		n, ok := s.tryRequeue(ob, &w.res)
		s.mu.Unlock()
		if ok {
			s.tr.Emit(obs.Event{Kind: obs.KindRequeue, Worker: wid,
				Class: int32(ob.ci), A: int32(ob.rep), B: int32(ob.m),
				Retries: int32(n)})
			return false
		}
	}
	s.tr.Emit(obs.Event{Kind: obs.KindResolve, Worker: wid,
		Class: int32(ob.ci), A: int32(ob.rep), B: int32(ob.m),
		Verdict: int8(pr.Verdict), Dur: st.Time})
	switch pr.Verdict {
	case prover.Equal:
		s.perturbPar(chaos.PointMerge, w, wid, int32(ob.rep), int32(ob.m))
		s.mu.Lock()
		merge := false
		if cm := s.classes.ClassOf(ob.m); cm >= 0 && cm == s.classes.ClassOf(ob.rep) {
			s.classes.Remove(ob.m)
			merge = true
		}
		s.mu.Unlock()
		if merge {
			if s.uf.union(ob.rep, ob.m) {
				w.res.StripeContention++
				s.tr.Emit(obs.Event{Kind: obs.KindStripeContention, Worker: wid,
					A: int32(ob.rep), B: int32(ob.m)})
			}
		}
		w.res.Proved++
		return true
	case prover.Differ:
		w.res.Disproved++
		w.res.CexVectors++
		if w.pool.full() {
			s.mu.Lock()
			s.flushWorkerLocked(w, wid)
			s.mu.Unlock()
		}
		// Amplification runs lock-free: the pool buffers are worker-private
		// and the pending marks are atomics.
		w.pool.add(pr.Cex, pair{ob.rep, ob.m})
	default:
		if ctx.Err() != nil {
			w.res.Incomplete = true
			return false
		}
		s.mu.Lock()
		s.classes.Remove(ob.m)
		s.mu.Unlock()
		w.res.Unresolved++
	}
	return false
}

// flushPool drains the sequential counterexample pool into the partition;
// the caller holds mu.
func (s *scheduler) flushPool(res *Result) {
	s.flushPoolOf(res, s.pool, 0)
}

// flushWorkerLocked merges one parallel worker's private counterexample
// batch into the partition through a single batched refinement; the caller
// holds mu. The batch-merge event precedes the flush it performs.
func (s *scheduler) flushWorkerLocked(w *workerState, wid int32) {
	if w.pool.empty() {
		return
	}
	w.res.BatchMerges++
	s.tr.Emit(obs.Event{Kind: obs.KindBatchMerge, Worker: wid,
		Lanes: int32(w.pool.lanes), Pending: int32(len(w.pool.pending))})
	if s.inj != nil {
		// A restricted perturbation point: the flush is already committed,
		// so only schedule-shaping actions apply (an injected flush here
		// would recurse into the flush in progress).
		switch act := s.inj.At(chaos.PointBatchMerge, int32(w.pool.lanes), int32(len(w.pool.pending))); act {
		case chaos.ActYield:
			runtime.Gosched()
			s.emitPerturb(chaos.PointBatchMerge, act, wid, -1, -1)
		case chaos.ActDelay:
			for i := 0; i < schedDelaySpins; i++ {
				runtime.Gosched()
			}
			s.emitPerturb(chaos.PointBatchMerge, act, wid, -1, -1)
		case chaos.ActWake:
			s.cond.Broadcast()
			s.emitPerturb(chaos.PointBatchMerge, act, wid, -1, -1)
		}
	}
	s.flushPoolOf(&w.res, w.pool, wid)
}

// flushPoolOf drains one counterexample pool into the partition, folding
// the accounting into res; the caller holds mu. Pairs a flush failed to
// separate (defective counterexamples) are dropped from their classes by
// the pool and accounted both as unresolved and under the distinct
// PoolDropped counter.
func (s *scheduler) flushPoolOf(res *Result, p *cexPool, wid int32) {
	if p.empty() {
		return
	}
	lanes := p.lanes
	before := s.classes.NumClasses()
	start := time.Now()
	dropped := p.flush()
	res.Unresolved += len(dropped)
	res.PoolDropped += len(dropped)
	res.PoolFlushes++
	res.PoolLanes += lanes
	splits := s.classes.NumClasses() - before
	s.tr.Emit(obs.Event{Kind: obs.KindPoolFlush, Worker: wid,
		Lanes:   int32(lanes),
		Splits:  int32(splits),
		Dropped: int32(len(dropped)),
		Dur:     time.Since(start)})
	if s.opts.Cache != nil && len(p.kept) > 0 {
		// Counterexamples that just split classes are exactly the vectors
		// worth recycling next run; score them by this flush's split power.
		s.opts.Cache.RecordPatterns(p.kept, splits)
		p.kept = p.kept[:0]
	}
	// A flush reshapes the partition; parked workers must rescan.
	s.epoch++
	s.cond.Broadcast()
}

// perturb consults the chaos injector at an unlocked decision point and
// applies schedule-shaping actions; fault actions belong to the engine
// boundary and are ignored here.
func (s *scheduler) perturb(p chaos.Point, wid, a, b int32) {
	if s.inj == nil {
		return
	}
	act := s.inj.At(p, a, b)
	switch act {
	case chaos.ActYield:
		runtime.Gosched()
	case chaos.ActDelay:
		for i := 0; i < schedDelaySpins; i++ {
			runtime.Gosched()
		}
	case chaos.ActFlush:
		s.mu.Lock()
		s.flushPool(&s.res)
		s.mu.Unlock()
	case chaos.ActWake:
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	default:
		return
	}
	s.emitPerturb(p, act, wid, a, b)
}

// perturbPar is perturb for unlocked decision points on a parallel worker:
// an injected flush merges the worker's own batch.
func (s *scheduler) perturbPar(p chaos.Point, w *workerState, wid, a, b int32) {
	if s.inj == nil {
		return
	}
	act := s.inj.At(p, a, b)
	switch act {
	case chaos.ActYield:
		runtime.Gosched()
	case chaos.ActDelay:
		for i := 0; i < schedDelaySpins; i++ {
			runtime.Gosched()
		}
	case chaos.ActFlush:
		s.mu.Lock()
		s.flushWorkerLocked(w, wid)
		s.mu.Unlock()
	case chaos.ActWake:
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	default:
		return
	}
	s.emitPerturb(p, act, wid, a, b)
}

// perturbLocked is perturb for decision points reached with mu held.
func (s *scheduler) perturbLocked(p chaos.Point, wid, a, b int32) {
	if s.inj == nil {
		return
	}
	act := s.inj.At(p, a, b)
	switch act {
	case chaos.ActYield:
		runtime.Gosched()
	case chaos.ActDelay:
		for i := 0; i < schedDelaySpins; i++ {
			runtime.Gosched()
		}
	case chaos.ActFlush:
		s.flushPool(&s.res)
	case chaos.ActWake:
		s.cond.Broadcast()
	default:
		return
	}
	s.emitPerturb(p, act, wid, a, b)
}

// perturbLockedPar is perturbLocked on a parallel worker: an injected
// flush merges the worker's own batch.
func (s *scheduler) perturbLockedPar(p chaos.Point, w *workerState, wid, a, b int32) {
	if s.inj == nil {
		return
	}
	act := s.inj.At(p, a, b)
	switch act {
	case chaos.ActYield:
		runtime.Gosched()
	case chaos.ActDelay:
		for i := 0; i < schedDelaySpins; i++ {
			runtime.Gosched()
		}
	case chaos.ActFlush:
		s.flushWorkerLocked(w, wid)
	case chaos.ActWake:
		s.cond.Broadcast()
	default:
		return
	}
	s.emitPerturb(p, act, wid, a, b)
}

// schedDelaySpins is the cooperative-yield count of an injected delay.
const schedDelaySpins = 32

func (s *scheduler) emitPerturb(p chaos.Point, act chaos.Action, wid, a, b int32) {
	s.tr.Emit(obs.Event{Kind: obs.KindPerturb, Worker: wid,
		Point: p.String(), Act: act.String(), A: a, B: b})
}

// finish stamps the final accounting shared by all run modes; the caller
// holds mu.
func (s *scheduler) finish(ctx context.Context) {
	s.res.FinalCost = s.classes.Cost()
	if err := ctx.Err(); err != nil {
		s.res.Incomplete = true
		if errors.Is(err, context.DeadlineExceeded) {
			s.res.TimedOut = true
		}
	}
}
