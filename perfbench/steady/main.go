// Command steady runs one benchmark workload several times, each in a
// fresh process with its own seed, and prints every metric's median,
// quartiles and spread (the interquartile distance as a share of the
// median), plus the share of failed operations:
//
//	steady -workload fig3-sweep -runs 10 .bench_build/bin/perfbench
//
// Given two binaries it alternates them run for run, swapping which
// goes first in every other pair, and counts the pairs in which the
// second binary's figure is lower. With -overhead it alternates the
// untraced and traced variants of one binary and prints the tracing
// overhead on the median round wall time. Run it from the checkout
// root, where the benchmark keeps its scratch files.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"repro/perfbench/stats"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	roundWall float64
}

// side is one binary (or one trace mode) and the results of its runs.
type side struct {
	label string
	bin   string
	trace int
	runs  []result
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	runs := flag.Int("runs", 10, "runs per side; run i uses seed seed+i")
	seed := flag.Int("seed", 1, "first seed")
	seconds := flag.Int("seconds", 20, "--seconds passed to each run")
	trace := flag.Bool("trace", false, "run the traced variant (per-layer metrics)")
	overhead := flag.Bool("overhead", false, "alternate untraced and traced runs of one binary")
	verbose := flag.Bool("v", false, "also print every run's value of every metric")
	flag.Parse()
	bins := flag.Args()
	if *workload == "" || len(bins) < 1 || len(bins) > 2 || (*overhead && len(bins) != 1) {
		fmt.Fprintln(os.Stderr, "usage: steady -workload W [-runs N] [-seed S] [-seconds T] [-trace | -overhead] BIN [BIN2]")
		os.Exit(2)
	}
	tr := 0
	if *trace {
		tr = 1
	}
	var sides []*side
	for _, b := range bins {
		sides = append(sides, &side{label: b, bin: b, trace: tr})
	}
	if *overhead {
		sides = []*side{{label: "untraced", bin: bins[0]}, {label: "traced", bin: bins[0], trace: 1}}
	}
	for i := 0; i < *runs; i++ {
		order := sides
		if len(sides) == 2 && i%2 == 1 {
			order = []*side{sides[1], sides[0]}
		}
		for _, s := range order {
			r, err := runOnce(s, *workload, *seed+i, *seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", s.label, *seed+i, err)
				os.Exit(1)
			}
			s.runs = append(s.runs, r)
		}
	}
	for _, s := range sides {
		printSide(s, *verbose)
	}
	if *overhead {
		u, t := roundWalls(sides[0]), roundWalls(sides[1])
		fmt.Printf("tracing overhead on the median round wall time: %+.1f%% (untraced %.4g s, traced %.4g s)\n",
			100*(stats.Median(t)/stats.Median(u)-1), stats.Median(u), stats.Median(t))
	} else if len(sides) == 2 {
		printPairs(sides[0], sides[1])
	}
}

func runOnce(s *side, workload string, seed, seconds int) (result, error) {
	cmd := exec.Command(s.bin, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(s.trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var r result
	sc := bufio.NewScanner(bytes.NewReader(out))
	var last string
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "round_wall_s" {
			r.roundWall, _ = strconv.ParseFloat(f[1], 64)
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("last line is not a result: %v", err)
	}
	return r, nil
}

func metricNames(s *side) []string {
	seen := map[string]bool{}
	for _, r := range s.runs {
		for n := range r.Metrics {
			seen[n] = true
		}
	}
	var names []string
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func values(s *side, name string) []float64 {
	var v []float64
	for _, r := range s.runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func roundWalls(s *side) []float64 {
	var v []float64
	for _, r := range s.runs {
		v = append(v, r.roundWall)
	}
	return v
}

func printSide(s *side, verbose bool) {
	var attempted, failed int
	for _, r := range s.runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	fmt.Printf("%s (trace %d): %d runs, %d operations, %d failed (%.4g%%)\n",
		s.label, s.trace, len(s.runs), attempted, failed, 100*float64(failed)/float64(max(attempted, 1)))
	fmt.Printf("  %-32s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, n := range metricNames(s) {
		v := values(s, n)
		q1, _, q3 := stats.Quartiles(v)
		fmt.Printf("  %-32s %14.6g %14.6g %14.6g %7.2f%%\n", n, q1, stats.Median(v), q3, 100*stats.Spread(v))
		if verbose {
			fmt.Printf("  %32s %.6g\n", "runs:", v)
		}
	}
}

// printPairs counts, per metric, the pairs in which B reads lower
// than A; ties count for neither.
func printPairs(a, b *side) {
	fmt.Printf("pairs where %s reads lower than %s:\n", b.label, a.label)
	for _, n := range metricNames(a) {
		lower, higher := 0, 0
		for i := range a.runs {
			va, vb := a.runs[i].Metrics[n].Value, b.runs[i].Metrics[n].Value
			switch {
			case vb < va:
				lower++
			case vb > va:
				higher++
			}
		}
		fmt.Printf("  %-32s lower in %d, higher in %d of %d (median %+.2f%%)\n", n, lower, higher, len(a.runs),
			100*(stats.Median(values(b, n))/stats.Median(values(a, n))-1))
	}
}
