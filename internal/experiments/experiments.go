// Package experiments reproduces the evaluation of the SimGen paper: the
// cost/runtime comparison of Table 1, the SAT-call/SAT-time comparison of
// Table 2 (standard and putontop-scaled benchmarks), the per-benchmark
// normalized differences of Figures 5 and 6, and the iteration trajectories
// of Figure 7.
package experiments

import (
	"fmt"
	"time"

	"simgen/internal/core"
	"simgen/internal/genbench"
	"simgen/internal/mapper"
	"simgen/internal/network"
	"simgen/internal/sweep"
)

// Method names one vector-generation technique under evaluation.
type Method struct {
	Name string
	// New creates the vector source for a network. A nil source denotes
	// pure random simulation.
	New func(net *network.Network, seed int64) core.VectorSource
}

// The paper's five techniques (Table 1) plus the random baseline (Fig. 7).
var (
	MethodRandS = Method{"RandS", func(n *network.Network, s int64) core.VectorSource {
		return core.NewRandom(n, s)
	}}
	MethodRevS = Method{"RevS", func(n *network.Network, s int64) core.VectorSource {
		return core.NewReverse(n, s)
	}}
	MethodSIRD = Method{"SI+RD", func(n *network.Network, s int64) core.VectorSource {
		return core.NewGenerator(n, core.StrategySIRD, s)
	}}
	MethodAIRD = Method{"AI+RD", func(n *network.Network, s int64) core.VectorSource {
		return core.NewGenerator(n, core.StrategyAIRD, s)
	}}
	MethodAIDC = Method{"AI+DC", func(n *network.Network, s int64) core.VectorSource {
		return core.NewGenerator(n, core.StrategyAIDC, s)
	}}
	MethodSimGen = Method{"SimGen", func(n *network.Network, s int64) core.VectorSource {
		return core.NewGenerator(n, core.StrategySimGen, s)
	}}
)

// Table1Methods is the method set of Table 1, in paper order.
var Table1Methods = []Method{MethodRevS, MethodSIRD, MethodAIRD, MethodAIDC, MethodSimGen}

// Config controls an experiment run.
type Config struct {
	// Benchmarks to evaluate; nil means the full 42-benchmark suite.
	Benchmarks []string
	// RandomRounds of 64 vectors before guided simulation (paper: 1).
	RandomRounds int
	// GuidedIterations of the vector source (paper: 20).
	GuidedIterations int
	// BatchSize is the number of vectors generated per guided iteration.
	// The paper's iteration granularity corresponds to one targeted
	// vector per iteration.
	BatchSize int
	// Seed for all randomized components.
	Seed int64
	// ConflictBudget per SAT call during sweeping (0 = unlimited).
	ConflictBudget int64
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		RandomRounds:     1,
		GuidedIterations: 20,
		BatchSize:        1,
		Seed:             20250706,
		ConflictBudget:   200000,
	}
}

func (c Config) names() []string {
	if c.Benchmarks != nil {
		return c.Benchmarks
	}
	return genbench.Names()
}

// PipelineResult captures one benchmark/method pipeline execution.
type PipelineResult struct {
	Bench    string
	Method   string
	Cost     int           // Eq. (5) after guided simulation
	SimTime  time.Duration // generation + simulation time
	SATCalls int
	SATTime  time.Duration
	Proved   int
	LUTs     int
}

// lutNetwork materializes a benchmark by name.
func lutNetwork(name string) (*network.Network, error) {
	b, ok := genbench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	return b.LUTNetwork()
}

// runSimulation runs the simulation part of the pipeline: one random
// partitioning round plus GuidedIterations of the method.
func runSimulation(net *network.Network, m Method, cfg Config) (*core.Runner, PipelineResult) {
	runner := core.NewRunner(net, cfg.RandomRounds, cfg.Seed)
	if cfg.BatchSize > 0 {
		runner.BatchSize = cfg.BatchSize
	}
	src := m.New(net, cfg.Seed+1)
	runner.Run(src, cfg.GuidedIterations)
	return runner, PipelineResult{
		Method:  m.Name,
		Cost:    runner.Classes.Cost(),
		SimTime: runner.Elapsed(),
		LUTs:    net.NumLUTs(),
	}
}

// RunPipeline executes simulation and, when withSweep is set, SAT sweeping
// for one benchmark network and method.
func RunPipeline(net *network.Network, m Method, cfg Config, withSweep bool) PipelineResult {
	runner, res := runSimulation(net, m, cfg)
	if withSweep {
		sw := sweep.New(net, runner.Classes, sweep.Options{ConflictBudget: cfg.ConflictBudget})
		sres := sw.Run()
		res.SATCalls = sres.SATCalls
		res.SATTime = sres.Time
		res.Proved = sres.Proved
	}
	return res
}

// ScaledBenchmark is one row of the paper's putontop study (lower half of
// Table 2 / Figure 6): a benchmark stacked `Copies` times.
type ScaledBenchmark struct {
	Name   string
	Copies int
}

// ScaledSet lists the stacked benchmarks exactly as in the paper.
var ScaledSet = []ScaledBenchmark{
	{"alu4", 15},
	{"square", 7},
	{"arbiter", 15},
	{"b15_C2", 8},
	{"b17_C", 5},
	{"b17_C2", 5},
	{"b20_C2", 8},
	{"b21_C2", 8},
	{"b22_C", 6},
}

// scaledNetwork builds the stacked LUT network for one scaled benchmark.
func scaledNetwork(sb ScaledBenchmark) (*network.Network, error) {
	b, ok := genbench.ByName(sb.Name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", sb.Name)
	}
	stacked := genbench.PutOnTop(b.Build(), sb.Copies)
	return mapper.Map(stacked, mapper.DefaultOptions())
}
