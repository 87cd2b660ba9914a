package core

// Micro-benchmark for the generator's hot loop (implication and decision,
// Algorithm 1). Run with -benchmem; the CI bench gate compares time/op
// medians against results/bench_baseline.txt. The reported work counters
// are deterministic, so a time/op change with unchanged implications/op and
// decisions/op is a change in the cost per unit of work, not in the search.

import (
	"testing"

	"simgen/internal/genbench"
)

// BenchmarkGuidedBatch generates one 64-vector guided batch against the
// classes left by one round of random simulation, with a fresh generator
// per op so every op does the same search.
func BenchmarkGuidedBatch(b *testing.B) {
	for _, name := range []string{"apex2", "cps", "alu4"} {
		bm, ok := genbench.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		net, err := bm.LUTNetwork()
		if err != nil {
			b.Fatal(err)
		}
		classes := NewRunner(net, 1, 42).Classes
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var implications, decisions int64
			for i := 0; i < b.N; i++ {
				g := NewGenerator(net, StrategySimGen, 1)
				g.NextBatch(classes, 64)
				st := g.GenStats()
				implications += st.Implications
				decisions += st.Decisions
			}
			b.ReportMetric(float64(implications)/float64(b.N), "implications/op")
			b.ReportMetric(float64(decisions)/float64(b.N), "decisions/op")
		})
	}
}
