// Quickstart: the complete SimGen flow on one built-in benchmark —
// random simulation partitions the nodes into candidate equivalence
// classes, SimGen's guided vectors split the classes random simulation
// cannot, and SAT sweeping proves or disproves what remains.
package main

import (
	"fmt"
	"log"

	"simgen"
)

func main() {
	// Load a benchmark circuit, LUT-mapped with K=6 like the paper.
	net, err := simgen.LoadBenchmark("apex2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit apex2: %s\n\n", net.Stats())

	// Step 1: one round (64 vectors) of random simulation builds the
	// initial candidate equivalence classes.
	run := simgen.NewRunner(net, 1, 42)
	fmt.Printf("after random simulation:  %4d candidate classes, cost %d\n",
		run.Classes.NumClasses(), run.Classes.Cost())

	// Step 2: twenty SimGen iterations. Each one picks a class, assigns
	// alternating OUTgold values to its members, and propagates them back
	// to the inputs with ATPG-style implications and decisions.
	gen := simgen.NewGenerator(net, simgen.StrategySimGen, 1)
	run.Run(gen, 20)
	fmt.Printf("after SimGen guidance:    %4d candidate classes, cost %d\n",
		run.Classes.NumClasses(), run.Classes.Cost())

	// Step 3: SAT sweeping settles every remaining candidate pair.
	res := simgen.Sweep(net, run.Classes, simgen.SweepOptions{})
	fmt.Printf("after SAT sweeping:       cost %d\n\n", res.FinalCost)
	fmt.Printf("SAT calls:    %d (%.2f ms)\n", res.SATCalls,
		float64(res.Time.Microseconds())/1000)
	fmt.Printf("proved equivalent: %d node pairs\n", res.Proved)
	fmt.Printf("disproved:         %d node pairs\n", res.Disproved)
}
