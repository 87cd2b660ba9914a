// Command perfbench is the repository's benchmark. It runs the sweeping
// and CEC pipeline through the public simgen API on one seeded workload,
// checks every output independently of the engines, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object. See README.md.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Set-up is repeated at least minSetupReps times, and further while the
// repetitions so far took less than setupBudget, up to maxSetupReps.
const (
	minSetupReps = 3
	maxSetupReps = 30
	setupBudget  = time.Second
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"pass_s", "s"},
	{"verdict_p50_ms", "ms"},
	{"verdict_tail_ms", "ms"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1): the ledger. A
// metric of a layer the workload bypasses reads 0. The BDD engine has
// none: no workload enables the BDD fallback, so it never runs.
var perLayer = []metricSpec{
	{"load.gen_s", "s"}, {"load.parse_s", "s"}, {"mapper.map_s", "s"}, {"mapper.luts", "count"},

	{"sim.random_s", "s"}, {"sim.cost_initial", "count"}, {"sim.classes_initial", "count"},

	{"core.gen_s", "s"}, {"core.batches", "count"}, {"core.vectors", "count"},
	{"core.zero_yield_batches", "count"}, {"core.decisions", "count"},
	{"core.implications", "count"}, {"core.implications_per_s", "1/s"},
	{"core.gen_conflicts", "count"}, {"core.cost_after_guided", "count"},

	{"sweep.run_s", "s"}, {"sweep.obligations", "count"}, {"sweep.pool_flushes", "count"},
	{"sweep.pool_lanes", "count"}, {"sweep.pool_s", "s"}, {"sweep.apply_s", "s"},
	{"sweep.steals", "count"}, {"sweep.batch_merges", "count"},
	{"sweep.stripe_contention", "count"}, {"sweep.utilization", "ratio"},

	{"prover.sat.proves", "count"}, {"prover.sat.time_s", "s"},
	{"prover.sim.proves", "count"}, {"prover.sim.time_s", "s"},
	{"prover.word.proves", "count"}, {"prover.word.time_s", "s"},
	{"prover.escalations", "count"}, {"cec.po_calls", "count"}, {"cec.po_s", "s"},

	{"sat.calls", "count"}, {"sat.conflicts", "count"}, {"sat.propagations", "count"},
	{"sat.time_s", "s"}, {"sat.props_per_s", "1/s"},

	{"word.words_detected", "count"}, {"word.checks", "count"}, {"word.frontier_proofs", "count"},

	{"pcache.open_s", "s"}, {"pcache.replay_s", "s"}, {"pcache.close_s", "s"},
	{"pcache.probes", "count"}, {"pcache.hits", "count"}, {"pcache.misses", "count"},
	{"pcache.reval_fails", "count"}, {"pcache.hit_ratio", "ratio"}, {"pcache.journal_bytes", "bytes"},

	{"ledger.pass_s", "s"}, {"ledger.untraced_pass_s", "s"},
	{"ledger.unattributed_s", "s"}, {"ledger.unattributed_frac", "ratio"},
	{"ledger.trace_overhead_s", "s"}, {"ledger.trace_overhead_frac", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, "|"))
	seed := fs.Int64("seed", 1, "seed of the inputs and of the flow")
	seconds := fs.Int("seconds", 10, "measure for at least this many seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: the per-layer ledger")
	scratch := fs.String("scratch", ".bench_build", "directory for the proof-cache journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: perfbench --workload %s --seed n --seconds s --trace 0|1\n",
			strings.Join(names, "|"))
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r, err := measure(w, settings{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		scratch: *scratch,
		corpus:  filepath.Join("testdata", "datapath"),
		log:     stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := r.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

type settings struct {
	seed    int64
	seconds time.Duration
	trace   bool
	scratch string
	corpus  string    // the datapath BLIF corpus
	log     io.Writer // receives one line per failed output check
}

// pass is one timed pass over every input of a workload.
type pass struct {
	wall    float64 // seconds
	allocMB float64
	l       ledger // traced passes only
}

type result struct {
	w                 *workload
	s                 settings
	setups            []float64 // seconds per set-up repetition
	loads             []ledger  // load spans per set-up repetition
	untraced, traced  []pass
	latencies         []float64            // ms per verdict, untraced passes
	perInput          map[string][]float64 // the same, by input and phase
	attempted, failed int
	peakRSSMB         float64
}

func newResult(w *workload, s settings) *result {
	return &result{w: w, s: s, perInput: map[string][]float64{}}
}

// measure sets the workload up several times, then makes passes over its
// inputs until s.seconds have gone by and w.minPasses were made. With
// s.trace it alternates untraced and traced passes, so the ledger and the
// tracing overhead come from the same run.
func measure(w *workload, s settings) (*result, error) {
	r := newResult(w, s)
	var inputs []input
	setupStart := time.Now()
	for rep := 0; rep < minSetupReps || (rep < maxSetupReps && time.Since(setupStart) < setupBudget); rep++ {
		runtime.GC()
		l := ledger{}
		start := time.Now()
		ins, err := w.load(s.seed, s.corpus, l)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		r.loads = append(r.loads, l)
		inputs = ins
	}

	start := time.Now()
	for {
		traced := s.trace && len(r.untraced) > len(r.traced)
		r.pass(inputs, traced)
		done := time.Since(start) >= s.seconds
		if s.trace {
			done = done && len(r.traced) == len(r.untraced)
		} else {
			done = done && len(r.untraced) >= w.minPasses
		}
		if done {
			break
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.peakRSSMB = rss
	return r, nil
}

// pass times one pass over the inputs, then checks every output outside
// the timed interval. Each pass gets fresh copies of the networks, so it
// pays for the derived data (fanouts, levels, covers) a network computes
// on first use, as a run that loads the circuit does.
func (r *result) pass(inputs []input, traced bool) {
	fresh := make([]input, len(inputs))
	for i, in := range inputs {
		fresh[i] = in.clone()
	}
	l := ledger{}
	var outs []outcome
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := range fresh {
		outs = append(outs, r.w.run(&fresh[i], traced, l, r.s.scratch)...)
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	for i := range outs {
		o := &outs[i]
		r.attempted++
		if err := o.check(); err != nil {
			r.failed++
			fmt.Fprintf(r.s.log, "perfbench: %s %s %s: %v\n", r.w.name, o.in.name, o.phase, err)
		}
	}
	p := pass{wall: wall, allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6}
	if !traced {
		for _, o := range outs {
			ms := float64(o.latency) / float64(time.Millisecond)
			r.latencies = append(r.latencies, ms)
			k := o.in.name + "/" + o.phase
			r.perInput[k] = append(r.perInput[k], ms)
		}
		r.untraced = append(r.untraced, p)
		return
	}
	l.finish(wall, r.w.workers)
	p.l = l
	r.traced = append(r.traced, p)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb / 1e3, nil
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM in /proc/self/status")
}

func walls(ps []pass) []float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, p.wall)
	}
	return xs
}

// metrics returns the run's metrics by name: the end-to-end set for an
// untraced run, the ledger for a traced one. Each is the median over the
// passes (or set-up repetitions) of the run, except the verdict times:
// verdict_p50_ms is the median over inputs of each input's median time,
// and verdict_tail_ms is taken over every verdict of the run at the
// workload's tail percentile.
func (r *result) metrics() map[string]float64 {
	m := map[string]float64{}
	if !r.s.trace {
		var allocs []float64
		for _, p := range r.untraced {
			allocs = append(allocs, p.allocMB)
		}
		var inputMS []float64
		for _, xs := range r.perInput {
			inputMS = append(inputMS, median(xs))
		}
		m["pass_s"] = median(walls(r.untraced))
		m["verdict_p50_ms"] = median(inputMS)
		m["verdict_tail_ms"] = percentile(r.latencies, r.w.tailPercentile())
		m["setup_s"] = median(r.setups)
		m["alloc_mb"] = median(allocs)
		m["peak_rss_mb"] = r.peakRSSMB
		return m
	}
	for _, spec := range perLayer {
		var xs []float64
		for _, p := range r.traced {
			xs = append(xs, p.l[spec.name])
		}
		m[spec.name] = median(xs)
	}
	for _, k := range []string{"load.gen_s", "load.parse_s", "mapper.map_s", "mapper.luts"} {
		var xs []float64
		for _, l := range r.loads {
			xs = append(xs, l[k])
		}
		m[k] = median(xs)
	}
	untraced := median(walls(r.untraced))
	m["ledger.untraced_pass_s"] = untraced
	m["ledger.trace_overhead_s"] = m["ledger.pass_s"] - untraced
	m["ledger.trace_overhead_frac"] = ratio(m["ledger.pass_s"]-untraced, untraced)
	return m
}

// print writes one line per metric, then the JSON result line.
func (r *result) print(w io.Writer) error {
	specs := endToEnd
	mode := "untraced"
	if r.s.trace {
		specs, mode = perLayer, "traced"
	}
	m := r.metrics()
	fmt.Fprintf(w, "workload %s  seed %d  %s  passes %d untraced, %d traced  set-ups %d\n",
		r.w.name, r.s.seed, mode, len(r.untraced), len(r.traced), len(r.setups))
	for _, spec := range specs {
		fmt.Fprintf(w, "%-28s %14.6g %s", spec.name, m[spec.name], spec.unit)
		if spec.name == "verdict_tail_ms" {
			fmt.Fprintf(w, "  (p%.1f of %d verdicts)", r.w.tailPercentile(), len(r.latencies))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-28s %14.6g ratio  (%d of %d attempted)\n", "failed_frac",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, spec := range specs {
		out.Metrics[spec.name] = value{m[spec.name], spec.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
