package sweep

import (
	"context"
	"time"

	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/prover"
	"simgen/internal/sim"
)

// BDDResult reports the work performed by a BDD sweep.
type BDDResult struct {
	Checks      int           // equivalence queries answered
	Time        time.Duration // cumulative BDD construction + query time
	Proved      int
	Disproved   int
	Unresolved  int  // pairs abandoned after a node-table blow-up
	BlownUp     bool // the manager hit its node limit at least once
	FinalCost   int
	PeakNodes   int  // BDD manager size at the end
	PoolFlushes int  // batched counterexample refinements performed
	PoolLanes   int  // total vector lanes simulated across pool flushes
	Incomplete  bool // a deadline or cancel stopped the sweep early
	TimedOut    bool // the early stop was a context deadline
}

// BDDSweeper verifies candidate equivalences by building canonical BDDs —
// the pre-SAT approach the paper's related work starts from. Equivalence
// queries are constant-time reference comparisons once the BDDs exist, but
// construction can blow up exponentially (ErrNodeLimit), which is exactly
// the trade-off that pushed the field to SAT sweeping.
//
// It is the proof-obligation scheduler instantiated with the BDD engine;
// BDDResult is a view over the scheduler's unified Result.
type BDDSweeper struct {
	Net     *network.Network
	Classes *sim.Classes

	eng   *prover.BDD
	sched *scheduler
}

// NewBDD creates a BDD sweeper; maxNodes bounds the node table (0 = the
// manager default).
func NewBDD(net *network.Network, classes *sim.Classes, maxNodes int) *BDDSweeper {
	eng := prover.NewBDD(net, maxNodes)
	return &BDDSweeper{
		Net:     net,
		Classes: classes,
		eng:     eng,
		sched:   newScheduler(net, classes, Options{}, eng, nil, nil),
	}
}

// SetTracer routes the sweep's observability events (and the BDD engine's
// prove events) to t; nil restores obs.Nop.
func (s *BDDSweeper) SetTracer(t obs.Tracer) {
	tr := obs.OrNop(t)
	s.sched.tr = tr
	s.eng.SetTracer(tr)
}

// Rep returns the proven-equivalence representative of a node.
func (s *BDDSweeper) Rep(id network.NodeID) network.NodeID {
	return s.sched.uf.find(id)
}

// Run sweeps every non-singleton class.
func (s *BDDSweeper) Run() BDDResult {
	return s.RunContext(context.Background())
}

// RunContext is Run under a context: between pair checks, cancellation or a
// deadline stops the sweep and returns the partial result with Incomplete
// (and TimedOut, for deadlines) set. Individual checks are not interrupted
// mid-build — the manager's node limit bounds each one.
func (s *BDDSweeper) RunContext(ctx context.Context) BDDResult {
	res := s.sched.run(ctx, 1)
	return BDDResult{
		Checks:      res.BDDChecks,
		Time:        res.Time,
		Proved:      res.Proved,
		Disproved:   res.Disproved,
		Unresolved:  res.Unresolved,
		BlownUp:     res.BDDBlowups > 0,
		FinalCost:   res.FinalCost,
		PeakNodes:   s.eng.PeakNodes(),
		PoolFlushes: res.PoolFlushes,
		PoolLanes:   res.PoolLanes,
		Incomplete:  res.Incomplete,
		TimedOut:    res.TimedOut,
	}
}
