// Command benchgate compares two `go test -bench` output files and fails
// (exit 1) when any benchmark's median time/op regressed beyond a
// tolerance, or when any of its work counters changed. It is a
// dependency-free stand-in for benchstat, built for the CI bench gate: run
// the micro-benchmarks with -count N, save the output, and compare against
// the committed baseline.
//
// Usage:
//
//	benchgate -base results/bench_baseline.txt -new /tmp/bench_new.txt [-tolerance 0.20]
//
// A work counter is any custom per-op metric (`b.ReportMetric(x,
// "conflicts/op")`, implications/op, pairs/op, ...) other than ns/op, B/op
// and allocs/op. When all of a counter's baseline samples agree, the
// benchmark does deterministic work and every new sample must equal that
// value exactly; a counter whose baseline samples vary is reported and not
// gated. Benchmarks present in only one file are reported but never fail
// the gate (new benchmarks must be able to land before their baseline).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// results maps a benchmark name to its samples per unit ("ns/op",
// "conflicts/op", ...), one sample per -count repetition.
type results map[string]map[string][]float64

// parseBench reads benchmark result lines. The trailing -N GOMAXPROCS
// suffix is stripped so the same benchmark matches across machines.
func parseBench(r io.Reader) (results, error) {
	res := results{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark lines: name, iterations, then value/unit pairs.
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s value %q in %q", fields[i+1], fields[i], name)
			}
			if res[name] == nil {
				res[name] = map[string][]float64{}
			}
			res[name][fields[i+1]] = append(res[name][fields[i+1]], v)
		}
	}
	return res, sc.Err()
}

func readBench(path string) (results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return res, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// isCounter reports whether a unit is a work counter: a per-op metric that
// measures neither time nor memory.
func isCounter(unit string) bool {
	return strings.HasSuffix(unit, "/op") && unit != "ns/op" && unit != "B/op" && unit != "allocs/op"
}

// constant returns the value all samples share, or false when they vary.
func constant(v []float64) (float64, bool) {
	for _, x := range v[1:] {
		if x != v[0] {
			return 0, false
		}
	}
	return v[0], true
}

// gate prints the comparison to w and returns one message per failure: a
// median ns/op above the baseline's by more than tolerance, or a work
// counter that differs from its constant baseline value.
func gate(base, fresh results, tolerance float64, w io.Writer) []string {
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	fmt.Fprintf(w, "%-55s %14s %14s %8s\n", "benchmark", "base ns/op", "new ns/op", "delta")
	for _, name := range names {
		ns := fresh[name]["ns/op"]
		if len(ns) == 0 {
			continue
		}
		nm := median(ns)
		bs := base[name]["ns/op"]
		if len(bs) == 0 {
			fmt.Fprintf(w, "%-55s %14s %14.0f %8s\n", name, "(none)", nm, "new")
			continue
		}
		bm := median(bs)
		mark := ""
		if nm > bm*(1+tolerance) {
			mark = "  << REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: median time/op %+.1f%% (over %.0f%%)",
				name, (nm/bm-1)*100, tolerance*100))
		}
		fmt.Fprintf(w, "%-55s %14.0f %14.0f %+7.1f%%%s\n", name, bm, nm, (nm/bm-1)*100, mark)
	}

	fmt.Fprintf(w, "\n%-55s %-16s %14s %14s\n", "benchmark", "counter", "base", "new")
	for _, name := range names {
		units := make([]string, 0, len(base[name]))
		for unit := range base[name] {
			if isCounter(unit) {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			nv := fresh[name][unit]
			bv, fixed := constant(base[name][unit])
			switch {
			case len(nv) == 0:
				fmt.Fprintf(w, "%-55s %-16s %14s\n", name, unit, "(missing from new run)")
			case !fixed:
				fmt.Fprintf(w, "%-55s %-16s %14s %14g  (varies in baseline, not gated)\n",
					name, unit, "varies", median(nv))
			default:
				mark := ""
				for _, x := range nv {
					if x != bv {
						mark = "  << CHANGED"
						failures = append(failures, fmt.Sprintf("%s: %s = %g, baseline %g", name, unit, x, bv))
						break
					}
				}
				fmt.Fprintf(w, "%-55s %-16s %14g %14g%s\n", name, unit, bv, median(nv), mark)
			}
		}
	}

	for name := range base {
		if _, ok := fresh[name]; !ok {
			fmt.Fprintf(w, "%-55s %14s\n", name, "(missing from new run)")
		}
	}
	return failures
}

func main() {
	base := flag.String("base", "results/bench_baseline.txt", "baseline benchmark output")
	fresh := flag.String("new", "", "new benchmark output to compare")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional time/op regression")
	flag.Parse()
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -new is required")
		os.Exit(2)
	}

	baseRes, err := readBench(*base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	newRes, err := readBench(*fresh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if len(newRes) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark results in %s\n", *fresh)
		os.Exit(2)
	}

	if failures := gate(baseRes, newRes, *tolerance, os.Stdout); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchgate: %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "benchgate: %d failure(s): median time/op more than %.0f%% over baseline, or a changed work counter\n",
			len(failures), *tolerance*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok (%d benchmarks within %.0f%% of baseline, work counters unchanged)\n",
		len(newRes), *tolerance*100)
}
