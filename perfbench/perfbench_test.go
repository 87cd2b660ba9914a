package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"simgen"
)

var corpus = filepath.Join("..", "testdata", "datapath")

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	for _, tc := range []struct {
		n   int
		pct float64
	}{{11, 100.0 / 11}, {20, 50}, {82, 100.0 * 72 / 82}, {100, 90}} {
		if got := tailPercentile(tc.n); got != tc.pct {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.pct)
		}
	}
	// At its own sample count the tail sample has exactly 10 samples
	// beyond it; with more samples at the same percentile, more.
	for _, tc := range []struct{ n0, n, want int }{
		{11, 11, 1}, {20, 20, 10}, {82, 82, 72}, {100, 100, 90},
		{20, 40, 20}, {82, 164, 144}, {24, 32, 19},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		if got := percentile(xs, tailPercentile(tc.n0)); got != float64(tc.want) {
			t.Errorf("tail of %d samples at p%.2f = %v, want %d", tc.n, tailPercentile(tc.n0), got, tc.want)
		}
	}
}

// TestEvaluatorMatchesSimulateVector pins the checker's own evaluator to
// the library's single-vector simulation on every lane.
func TestEvaluatorMatchesSimulateVector(t *testing.T) {
	for _, name := range []string{"alu4", "sin", "cordic"} {
		net, err := simgen.LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		pis := checkWordsFor(net.NumPIs(), 7)[0]
		vals := make([]uint64, net.NumNodes())
		evalWord(net, pis, vals)
		for lane := 0; lane < 64; lane++ {
			vec := make([]bool, net.NumPIs())
			for i := range vec {
				vec[i] = pis[i]>>lane&1 != 0
			}
			ref := simgen.SimulateVector(net, vec)
			for id, v := range ref {
				if got := vals[id]>>lane&1 != 0; got != v {
					t.Fatalf("%s: node %d lane %d = %v, SimulateVector says %v", name, id, lane, got, v)
				}
			}
		}
	}
}

// TestCheckRejectsWrongMerge feeds the sweep check a network in which
// two inequivalent nodes were merged.
func TestCheckRejectsWrongMerge(t *testing.T) {
	net, err := simgen.LoadBenchmark("alu4")
	if err != nil {
		t.Fatal(err)
	}
	// Redirect the later of two PO drivers to the earlier, as a sweep
	// merging them would.
	keep, drop := net.POs()[0].Driver, net.POs()[1].Driver
	if drop < keep {
		keep, drop = drop, keep
	}
	bad := simgen.ApplySweep(net, func(id simgen.NodeID) simgen.NodeID {
		if id == drop {
			return keep
		}
		return id
	})
	if err := checkSameFunction(net, bad, 1); err == nil {
		t.Fatal("a network with a wrong merge passed the check")
	}
	good := simgen.ApplySweep(net, func(id simgen.NodeID) simgen.NodeID { return id })
	if err := checkSameFunction(net, good, 1); err != nil {
		t.Fatalf("an unmerged copy failed the check: %v", err)
	}
}

// TestMislabelledPairFails checks that a CEC verdict disagreeing with the
// pair's label counts as failed, and that the correctly labelled pair
// passes.
func TestMislabelledPairFails(t *testing.T) {
	for _, equal := range []bool{true, false} {
		w := *workloadByName("datapath_cec")
		w.pairs = []pair{{"cmp16", "cmp16_a", "cmp16_b", equal}}
		r := newResult(&w, settings{seed: 1, corpus: corpus, log: io.Discard})
		ins, err := w.load(1, corpus, ledger{})
		if err != nil {
			t.Fatal(err)
		}
		r.pass(ins, false)
		if wantFailed := map[bool]int{true: 0, false: 1}[equal]; r.failed != wantFailed {
			t.Errorf("cmp16 labelled equal=%v: %d of %d failed, want %d", equal, r.failed, r.attempted, wantFailed)
		}
	}
}

// TestDeterministicCounters runs one traced pass twice with the same
// seed on each workers=1 workload; the work counters must repeat exactly.
func TestDeterministicCounters(t *testing.T) {
	counters := []string{"sat.calls", "sat.conflicts", "core.vectors", "core.implications"}
	for _, w := range workloads {
		if w.workers != 1 {
			continue
		}
		if testing.Short() && w.name != "cache_rerun" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			var ledgers []ledger
			for i := 0; i < 2; i++ {
				r := newResult(w, settings{seed: 3, scratch: t.TempDir(), corpus: corpus, trace: true, log: io.Discard})
				ins, err := w.load(3, corpus, ledger{})
				if err != nil {
					t.Fatal(err)
				}
				r.pass(ins, true)
				if r.failed != 0 {
					t.Fatalf("%d of %d outputs failed their check", r.failed, r.attempted)
				}
				ledgers = append(ledgers, r.traced[0].l)
			}
			for _, k := range counters {
				if a, b := ledgers[0][k], ledgers[1][k]; a != b {
					t.Errorf("%s: %v then %v", k, a, b)
				}
			}
		})
	}
}

// TestParallelTracedPass runs a traced pass on 2 sweep workers, whose
// events reach the tally concurrently (run it with -race).
func TestParallelTracedPass(t *testing.T) {
	w := *workloadByName("sat_par")
	w.circuits = []string{"sin", "cordic"}
	r := newResult(&w, settings{seed: 1, trace: true, log: io.Discard})
	ins, err := w.load(1, corpus, ledger{})
	if err != nil {
		t.Fatal(err)
	}
	r.pass(ins, true)
	if r.failed != 0 {
		t.Fatalf("%d of %d outputs failed their check", r.failed, r.attempted)
	}
	if l := r.traced[0].l; l["sat.calls"] == 0 || l["sweep.run_s"] == 0 {
		t.Errorf("no sweep recorded: sat.calls %v, sweep.run_s %v", l["sat.calls"], l["sweep.run_s"])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	for _, lists := range []struct {
		json []metric
		prog []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(lists.json) != len(lists.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(lists.json), len(lists.prog))
			continue
		}
		for i, m := range lists.json {
			if p := lists.prog[i]; m.Name != p.name || m.Unit != p.unit {
				t.Errorf("metric %d: %s %s in BENCHMARK.json, %s %s in the program", i, m.Name, m.Unit, p.name, p.unit)
			}
		}
	}
}
