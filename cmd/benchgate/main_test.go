package main

import (
	"io"
	"strings"
	"testing"
)

func mustParse(t *testing.T, text string) results {
	t.Helper()
	res, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const baseline = `goos: linux
BenchmarkSolve/php7-2   	10	 100000 ns/op	 4628 conflicts/op	 62466 props/op	 2000 B/op	 10 allocs/op
BenchmarkSolve/php7-2   	10	 102000 ns/op	 4628 conflicts/op	 62466 props/op	 2000 B/op	 10 allocs/op
BenchmarkSolve/php7-2   	10	 101000 ns/op	 4628 conflicts/op	 62466 props/op	 2000 B/op	 10 allocs/op
BenchmarkNoisy-2        	10	   5000 ns/op	   12 steals/op
BenchmarkNoisy-2        	10	   5100 ns/op	   15 steals/op
PASS
`

func TestGatePassesWithinTolerance(t *testing.T) {
	// 15% slower, more bytes and allocations, identical work counters: no
	// failure. The noisy counter changes but varies in the baseline.
	fresh := mustParse(t, `BenchmarkSolve/php7-2   	10	 116000 ns/op	 4628 conflicts/op	 62466 props/op	 9000 B/op	 90 allocs/op
BenchmarkSolve/php7-4   	10	 115000 ns/op	 4628 conflicts/op	 62466 props/op	 9000 B/op	 90 allocs/op
BenchmarkNoisy-2        	10	   5000 ns/op	   40 steals/op
`)
	if f := gate(mustParse(t, baseline), fresh, 0.20, io.Discard); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
}

func TestGateFailsOnChangedCounter(t *testing.T) {
	// Faster, but one sample did different work: the gate names the
	// benchmark and the unit.
	fresh := mustParse(t, `BenchmarkSolve/php7-2   	10	 90000 ns/op	 4628 conflicts/op	 62466 props/op
BenchmarkSolve/php7-2   	10	 90000 ns/op	 4629 conflicts/op	 62466 props/op
`)
	f := gate(mustParse(t, baseline), fresh, 0.20, io.Discard)
	if len(f) != 1 || !strings.Contains(f[0], "BenchmarkSolve/php7") || !strings.Contains(f[0], "conflicts/op") {
		t.Fatalf("failures = %v, want one naming BenchmarkSolve/php7 conflicts/op", f)
	}
}

func TestGateFailsOnTimeRegression(t *testing.T) {
	fresh := mustParse(t, `BenchmarkSolve/php7-2   	10	 130000 ns/op	 4628 conflicts/op	 62466 props/op
`)
	f := gate(mustParse(t, baseline), fresh, 0.20, io.Discard)
	if len(f) != 1 || !strings.Contains(f[0], "time/op") {
		t.Fatalf("failures = %v, want one time/op regression", f)
	}
}

func TestGateIgnoresBenchmarksInOneFile(t *testing.T) {
	fresh := mustParse(t, `BenchmarkBrandNew-2   	10	 1 ns/op	 7 widgets/op
`)
	if f := gate(mustParse(t, baseline), fresh, 0.20, io.Discard); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
}

func TestParseSkipsNonResultLines(t *testing.T) {
	res := mustParse(t, `BenchmarkSkipped-2   	--- SKIP: no data
BenchmarkX-2   	3	 7.5 ns/op	 2.000 pairs/op
`)
	if len(res) != 1 || res["BenchmarkX"]["pairs/op"][0] != 2 || res["BenchmarkX"]["ns/op"][0] != 7.5 {
		t.Fatalf("parsed %v", res)
	}
}
