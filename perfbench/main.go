// Command perfbench is the repository's benchmark: it runs one fleet
// workload through the public SDK, checks the Report, and prints every
// metric by name with its unit.
//
//	bash perfbench/run.sh --workload lifecycle --seed 1 --seconds 55 --trace 0
//
// With --trace 0 it measures end to end: fresh processes of the
// workload's Scenario, one after another, until --seconds have passed,
// reporting the median of each figure. With --trace 1 it runs once in
// this (fresh) process with the benchmark's own spans around the calls
// into each layer, and reports per-layer figures. NOTES.md explains
// the workloads and metrics. The last line of standard output is the
// result object; the line before it is the host context.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// buildDir is where the benchmark builds and keeps its scratch files,
// relative to the root of the checkout it runs from.
const buildDir = ".bench_build"

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// The result line holds only value and unit; the fields below go to
	// standard error (see logDetail).
	//
	// N is the number of samples the value summarizes; Q1 and Q3 are
	// their quartiles, the spread within one run, where N allows.
	N      int     `json:"-"`
	Q1, Q3 float64 `json:"-"`
	// P names the percentile a tail figure reports, when it is not the
	// one in the metric's name (too few samples for it).
	P float64 `json:"-"`
}

// logDetail writes each metric with its sample count, quartiles and
// percentile, where it has them, to w in name order.
func logDetail(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "perfbench: %s = %v %s (n %d", name, m.Value, m.Unit, m.N)
		if m.Q1 != 0 || m.Q3 != 0 {
			fmt.Fprintf(w, ", q1 %v, q3 %v", m.Q1, m.Q3)
		}
		if m.P != 0 {
			fmt.Fprintf(w, ", p%v", m.P)
		}
		fmt.Fprintln(w, ")")
	}
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: lifecycle or coarse")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "measuring time of one run")
	traced := fs.Int("trace", 0, "1: per-layer traced run; 0: end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload lifecycle|coarse, --seconds >= 1, --trace 0|1")
		return 2
	}
	res, host, err := measure(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	logDetail(os.Stderr, res.Metrics)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]hostContext{"host": host}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

func measure(w workload, seed uint64, seconds int, traced bool) (result, hostContext, error) {
	ref, err := reference(w.name)
	if err != nil {
		return result{}, hostContext{}, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return result{}, hostContext{}, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return result{}, hostContext{}, err
	}
	defer os.RemoveAll(dir)
	host := measureHost()
	var res result
	if traced {
		res, err = layers(w, seed, seconds, dir, ref)
	} else {
		var exe string
		if exe, err = os.Executable(); err == nil {
			res, err = endToEnd(exe, w, seed, seconds, dir, ref)
		}
	}
	return res, host, err
}
