package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"simgen"
)

// Flow settings shared by every workload: the cmd/sweep defaults.
const (
	randomRounds     = 1
	guidedIterations = 20
	escalationFactor = 4
	maxEscalations   = 2
	bddNodeLimit     = 1 << 20

	// flowSeed is the flow's random seed (cmd/sweep's default) for every
	// input and run, so every run does the same work and the spread
	// between runs is the host's. The run seed orders the inputs and
	// seeds the output check instead.
	flowSeed = 1

	// inputDeadline bounds one input; an input still undecided when it
	// expires counts as failed.
	inputDeadline = 60 * time.Second
)

// pair is one labelled CEC instance of the datapath corpus.
type pair struct {
	name, a, b string
	equal      bool
}

// workload is one set of inputs and the flow configuration they run
// under. A workload either sweeps built-in circuits or checks BLIF pairs.
type workload struct {
	name, why string
	circuits  []string // built-in benchmarks, swept one at a time
	pairs     []pair   // corpus pairs, checked by CEC
	method    string   // guided generation before sweeping: "simgen" or "none"
	workers   int      // sweep workers
	engine    simgen.EngineKind
	word      bool // the word-level proving stage
	adaptive  bool // the adaptive first-engine policy
	cache     bool // sweep each circuit cold, then warm, through a fresh proof cache
	minPasses int  // passes every untraced run makes, however long they take
}

// verdicts is the number of verdicts one pass yields.
func (w *workload) verdicts() int {
	n := len(w.circuits) + len(w.pairs)
	if w.cache {
		n *= 2
	}
	return n
}

// tailPercentile is the percentile verdict_tail_ms reports: the highest
// with tailBeyond samples beyond it in the minimum number of passes. It
// is fixed per workload, so runs that fit in more passes report the same
// statistic over more samples.
func (w *workload) tailPercentile() float64 {
	return tailPercentile(w.minPasses * w.verdicts())
}

var workloads = []*workload{
	{
		name:     "table2_simgen",
		why:      "the paper's flow on the Table-2 suite without voter; guided generation dominates, so core and sim changes show",
		circuits: table2Circuits(),
		method:   "simgen", workers: 1, engine: simgen.EngineSAT, minPasses: 2,
	},
	{
		name: "datapath_cec",
		why:  "CEC of the committed datapath pairs under the word-staged adaptive portfolio: BLIF parsing, word plan, SAT-heavy prover, zero-yield generation",
		pairs: []pair{
			{"mul8x8", "mul8x8_a", "mul8x8_b", true},
			{"mul10x10", "mul10x10_a", "mul10x10_b", true},
			{"mulbooth8", "mulbooth8_a", "mulbooth8_b", true},
			{"add16csel", "add16csel_a", "add16csel_b", true},
			{"bshift8", "bshift8_a", "bshift8_b", true},
			{"alu8red", "alu8red_a", "alu8red_b", true},
			{"cmp16", "cmp16_a", "cmp16_b", true},
			{"mul8x8_neq", "mul8x8_a", "mul8x8_neq", false},
		},
		method: "simgen", workers: 1, engine: simgen.EnginePortfolio, word: true, adaptive: true,
		minPasses: 3,
	},
	{
		name:     "sat_par",
		why:      "the Table-2 suite without voter swept with no guided generation on 2 workers: SAT-bound, the only workload on the parallel scheduler",
		circuits: table2Circuits(),
		method:   "none", workers: 2, engine: simgen.EngineSAT, minPasses: 5,
	},
	{
		name:     "cache_rerun",
		why:      "a cold sweep writes the proof cache and a warm sweep replays it; the only workload on pcache",
		circuits: []string{"alu4", "apex2", "cps", "pdc", "spla"},
		method:   "none", workers: 1, engine: simgen.EngineSAT, cache: true, minPasses: 10,
	},
}

// table2Circuits is the paper's suite without voter. Voter's sweep alone
// takes 6 to 11 s and swings by a fifth from seed to seed, which would
// outweigh every other input.
func table2Circuits() []string {
	var names []string
	for _, b := range simgen.Benchmarks() {
		if b.Name != "voter" {
			names = append(names, b.Name)
		}
	}
	return names
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// input is one circuit to sweep or one labelled pair to check.
type input struct {
	name      string
	checkSeed int64           // seeds the random words of the output check
	net       *simgen.Network // swept circuit
	a, b      *simgen.Network // CEC pair
	equal     bool            // the pair's label
}

// clone returns the input with copies of its networks.
func (in input) clone() input {
	for _, n := range []**simgen.Network{&in.net, &in.a, &in.b} {
		if *n != nil {
			*n = (*n).Clone()
		}
	}
	return in
}

// inputSeed derives an input's check seed from the run seed.
func inputSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return int64(h.Sum64() >> 1)
}

// load builds the workload's inputs: it generates and maps the built-in
// circuits (what LoadBenchmark does, split to time both layers) or
// parses the BLIF pairs from the corpus directory, recording the load
// spans into l. The seed fixes the order in which a pass visits the
// inputs and the words that check their outputs.
func (w *workload) load(seed int64, corpus string, l ledger) ([]input, error) {
	var ins []input
	byName := map[string]simgen.Benchmark{}
	for _, b := range simgen.Benchmarks() {
		byName[b.Name] = b
	}
	for _, name := range w.circuits {
		b, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		start := time.Now()
		g := b.Build()
		l.span("load.gen_s", start)
		start = time.Now()
		net, err := simgen.MapAIG(g, simgen.MapOptions{})
		l.span("mapper.map_s", start)
		if err != nil {
			return nil, fmt.Errorf("mapping %s: %w", name, err)
		}
		l["mapper.luts"] += float64(net.NumLUTs())
		ins = append(ins, input{name: name, net: net})
	}
	for _, p := range w.pairs {
		start := time.Now()
		a, err := parseBLIF(filepath.Join(corpus, p.a+".blif"))
		if err != nil {
			return nil, err
		}
		b, err := parseBLIF(filepath.Join(corpus, p.b+".blif"))
		if err != nil {
			return nil, err
		}
		l.span("load.parse_s", start)
		ins = append(ins, input{name: p.name, a: a, b: b, equal: p.equal})
	}
	for i := range ins {
		ins[i].checkSeed = inputSeed(seed, ins[i].name)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	return ins, nil
}

func parseBLIF(path string) (*simgen.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	net, err := simgen.ParseBLIF(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return net, nil
}

// outcome is one verdict or completed sweep, kept for the output check
// that follows the timed pass.
type outcome struct {
	in      *input
	phase   string // "cold" or "warm" in a cache workload
	latency time.Duration
	err     error           // the flow failed or stayed undecided
	merged  *simgen.Network // sweep: the ApplySweep network
	cost    int             // sweep: the final cost
	cec     simgen.CECResult
}

// check verifies the outcome independently of the engines that made it.
func (o *outcome) check() error {
	if o.err != nil {
		return o.err
	}
	in := o.in
	if in.net != nil {
		if o.cost != 0 {
			return fmt.Errorf("final cost %d, want 0", o.cost)
		}
		return checkSameFunction(in.net, o.merged, in.checkSeed)
	}
	if o.cec.Equivalent != in.equal {
		return fmt.Errorf("verdict equivalent=%v, labelled %v", o.cec.Equivalent, in.equal)
	}
	if !in.equal {
		return checkCounterexample(in.a, in.b, o.cec.Counterexample)
	}
	return nil
}

func (w *workload) sweepOptions(tr simgen.Tracer) simgen.SweepOptions {
	return simgen.SweepOptions{
		Engine:           w.engine,
		EscalationFactor: escalationFactor,
		MaxEscalations:   maxEscalations,
		BDDNodeLimit:     bddNodeLimit,
		WordStage:        w.word,
		Adaptive:         w.adaptive,
		Tracer:           tr,
	}
}

// run processes one input, timing each layer call into l. A traced run
// also folds the input's events into l. scratch is where a cache
// workload makes its fresh cache directory.
func (w *workload) run(in *input, traced bool, l ledger, scratch string) []outcome {
	ctx, cancel := context.WithTimeout(context.Background(), inputDeadline)
	defer cancel()
	var tr simgen.Tracer
	if traced {
		tally := newEventTally()
		tr = tally
		defer tally.fold(l, w.pairs != nil)
	}
	if in.net == nil {
		return []outcome{w.cec(ctx, in, tr, l)}
	}
	if !w.cache {
		return []outcome{w.sweep(ctx, in, tr, l, "", "")}
	}
	dir, err := os.MkdirTemp(scratch, "pcache-")
	if err != nil {
		return []outcome{{in: in, err: err}}
	}
	defer os.RemoveAll(dir)
	return []outcome{
		w.sweep(ctx, in, tr, l, dir, "cold"),
		w.sweep(ctx, in, tr, l, dir, "warm"),
	}
}

// cec checks one labelled pair (cmd/sweep's CEC mode).
func (w *workload) cec(ctx context.Context, in *input, tr simgen.Tracer, l ledger) outcome {
	start := time.Now()
	res, err := simgen.CECContext(ctx, in.a, in.b, simgen.CECOptions{
		Seed:             flowSeed,
		GuidedIterations: guidedIterations,
		Method:           w.method,
		Workers:          w.workers,
		Sweep:            w.sweepOptions(tr),
	})
	o := outcome{in: in, latency: time.Since(start), err: err, cec: res}
	if err == nil && res.Undecided {
		o.err = fmt.Errorf("undecided on output %s", res.UndecidedPO)
	}
	l["cec.po_calls"] += float64(res.POCalls)
	l["cec.po_s"] += res.POTime.Seconds()
	l.addSweep(res.Sweep)
	return o
}

// sweep sweeps one circuit (cmd/sweep's sweep mode). With a cache
// directory it opens the proof cache there, replays its patterns before
// sweeping, and closes it after.
func (w *workload) sweep(ctx context.Context, in *input, tr simgen.Tracer, l ledger, dir, phase string) outcome {
	o := outcome{in: in, phase: phase}
	start := time.Now()
	var (
		store *simgen.ProofCache
		sess  *simgen.CacheSession
	)
	if dir != "" {
		t := time.Now()
		var err error
		store, err = simgen.OpenProofCache(dir)
		l.span("pcache.open_s", t)
		if err != nil {
			o.err = err
			return o
		}
	}

	t := time.Now()
	run := simgen.NewRunner(in.net, randomRounds, flowSeed)
	l.span("sim.random_s", t)
	run.SetTracer(tr)
	l["sim.cost_initial"] += float64(run.Classes.Cost())
	l["sim.classes_initial"] += float64(run.Classes.NumClasses())

	if store != nil {
		sess = simgen.NewCacheSession(store, in.net, tr)
		t = time.Now()
		sess.Replay(ctx, run)
		l.span("pcache.replay_s", t)
	}
	if w.method == "simgen" {
		gen := simgen.NewGenerator(in.net, simgen.StrategySimGen, flowSeed+1)
		t = time.Now()
		stats := run.RunContext(ctx, gen, guidedIterations)
		l.span("core.gen_s", t)
		if len(stats) > 0 {
			l["core.cost_after_guided"] += float64(stats[len(stats)-1].Cost)
		}
	}

	opts := w.sweepOptions(tr)
	if sess != nil {
		opts.Cache = sess
	}
	sw := simgen.NewSweeper(in.net, run.Classes, opts)
	t = time.Now()
	var res simgen.SweepResult
	if w.workers > 1 {
		res = sw.RunParallelContext(ctx, w.workers)
	} else {
		res = sw.RunContext(ctx)
	}
	l.span("sweep.run_s", t)
	l.addSweep(res)

	t = time.Now()
	o.merged = simgen.ApplySweep(in.net, sw.Rep)
	l.span("sweep.apply_s", t)
	o.cost = res.FinalCost

	if store != nil {
		t = time.Now()
		err := store.Close()
		l.span("pcache.close_s", t)
		if err != nil {
			o.err = fmt.Errorf("closing the proof cache: %w", err)
		}
	}
	o.latency = time.Since(start)
	if phase == "warm" {
		l["pcache.journal_bytes"] += float64(dirBytes(dir))
	}
	if res.Incomplete && o.err == nil {
		o.err = errors.New("sweep stopped before finishing")
	}
	return o
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir) // an unreadable directory counts as empty
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
