package main

import (
	"sync"
	"time"

	"simgen"
)

// ledger accumulates one pass's per-layer numbers by metric name: spans
// timed around the calls into each layer, counters the calls return, and
// the events a tracer folds in.
type ledger map[string]float64

func (l ledger) span(name string, start time.Time) {
	l[name] += time.Since(start).Seconds()
}

// attributed lists the top-level spans of a pass: disjoint layer calls
// whose sum, subtracted from the pass wall time, leaves the unattributed
// residue. Nested spans (pool flushes, engine verdicts) are excluded.
var attributed = []string{
	"sim.random_s", "core.gen_s", "sweep.run_s", "sweep.apply_s", "cec.po_s",
	"pcache.open_s", "pcache.replay_s", "pcache.close_s",
}

// engines are the prover engines whose verdict events carry an engine
// name.
var engines = []string{"sat", "sim", "bdd", "word"}

// eventTally is the benchmark's own Tracer: it folds the events the
// pipeline already emits for one input into counters and summed
// durations. Parallel sweep workers emit concurrently, so it locks.
type eventTally struct {
	mu sync.Mutex

	batches, vectors, zeroYield           int64
	decisions, implications, genConflicts int64
	batchDur                              time.Duration
	lastCost                              int64
	proves                                map[string]int64
	proveDur                              map[string]time.Duration
	satConflicts, satProps                int64
	poolDur, sweepDur                     time.Duration
	wordsDetected                         int64
}

func newEventTally() *eventTally {
	return &eventTally{proves: map[string]int64{}, proveDur: map[string]time.Duration{}}
}

// Emit implements simgen.Tracer.
func (t *eventTally) Emit(ev simgen.TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind.String() {
	case "sim_batch":
		t.batches++
		t.vectors += int64(ev.Vectors)
		if ev.Vectors == 0 {
			t.zeroYield++
		}
		t.decisions += ev.Decisions
		t.implications += ev.Implications
		t.genConflicts += ev.GenConflicts
		t.batchDur += ev.Dur
		t.lastCost = ev.Cost
	case "prove_verdict":
		t.proves[ev.Engine]++
		t.proveDur[ev.Engine] += ev.Dur
		if ev.Engine == "sat" {
			t.satConflicts += ev.Conflicts
			t.satProps += ev.Props
		}
	case "pool_flush":
		t.poolDur += ev.Dur
	case "sweep_done":
		t.sweepDur += ev.Dur
	case "word_detect":
		t.wordsDetected += int64(ev.Words)
	}
}

// fold adds one input's tally into a pass ledger. inCEC marks a CEC
// workload, where guided generation and the sweep run inside CEC, so
// their spans and the cost after generation come from the sim_batch and
// sweep_done events instead of outside timers and returned statistics.
func (t *eventTally) fold(l ledger, inCEC bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l["core.batches"] += float64(t.batches)
	l["core.vectors"] += float64(t.vectors)
	l["core.zero_yield_batches"] += float64(t.zeroYield)
	l["core.decisions"] += float64(t.decisions)
	l["core.implications"] += float64(t.implications)
	l["core.gen_conflicts"] += float64(t.genConflicts)
	for _, e := range engines {
		l["prover."+e+".proves"] += float64(t.proves[e])
		l["prover."+e+".time_s"] += t.proveDur[e].Seconds()
	}
	l["sat.calls"] += float64(t.proves["sat"])
	l["sat.time_s"] += t.proveDur["sat"].Seconds()
	l["sat.conflicts"] += float64(t.satConflicts)
	l["sat.propagations"] += float64(t.satProps)
	l["sweep.pool_s"] += t.poolDur.Seconds()
	l["word.words_detected"] += float64(t.wordsDetected)
	if inCEC {
		l["core.gen_s"] += t.batchDur.Seconds()
		l["sweep.run_s"] += t.sweepDur.Seconds()
		l["core.cost_after_guided"] += float64(t.lastCost)
	}
}

// addSweep adds the counters a sweep returns.
func (l ledger) addSweep(r simgen.SweepResult) {
	l["sweep.obligations"] += float64(r.Scheduled)
	l["sweep.pool_flushes"] += float64(r.PoolFlushes)
	l["sweep.pool_lanes"] += float64(r.PoolLanes)
	l["sweep.steals"] += float64(r.Steals)
	l["sweep.batch_merges"] += float64(r.BatchMerges)
	l["sweep.stripe_contention"] += float64(r.StripeContention)
	l["prover.escalations"] += float64(r.Escalations)
	l["word.checks"] += float64(r.WordChecks)
	l["word.frontier_proofs"] += float64(r.WordFrontier)
	l["pcache.probes"] += float64(r.CacheProbes)
	l["pcache.hits"] += float64(r.CacheHits)
	l["pcache.misses"] += float64(r.CacheMisses)
	l["pcache.reval_fails"] += float64(r.CacheRevalFails)
}

// finish derives the ratios and the residue of a traced pass that took
// wall seconds on the given number of sweep workers.
func (l ledger) finish(wall float64, workers int) {
	l["ledger.pass_s"] = wall
	sum := 0.0
	for _, k := range attributed {
		sum += l[k]
	}
	l["ledger.unattributed_s"] = wall - sum
	l["ledger.unattributed_frac"] = ratio(wall-sum, wall)
	l["core.implications_per_s"] = ratio(l["core.implications"], l["core.gen_s"])
	l["sat.props_per_s"] = ratio(l["sat.propagations"], l["sat.time_s"])
	l["pcache.hit_ratio"] = ratio(l["pcache.hits"], l["pcache.probes"])
	prove := 0.0
	for _, e := range engines {
		prove += l["prover."+e+".time_s"]
	}
	prove -= l["cec.po_s"] // the output checks run after the sweep
	l["sweep.utilization"] = ratio(prove, l["sweep.run_s"]*float64(workers))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
