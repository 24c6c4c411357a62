// Command perfbench is the end-to-end benchmark of the simulator. One
// invocation runs one named workload in a fresh process:
//
//	perfbench --workload fig3-sweep --seed 1 --seconds 20 --trace 0
//
// It sets the workload up, then runs whole rounds of its operations
// in a closed loop until --seconds have passed, checks every
// operation's output, and prints each metric by name and unit followed
// by one JSON line with the operations attempted and failed. With
// --trace 1 it reruns the workload with spans recorded around every
// call into a layer, probes the layers the workload does not reach,
// writes the spans to .bench_build/spans/ and prints the per-layer metrics
// instead. --rung R runs one Fig. 3 cell of R ranks for the rank
// ladder and exits.
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/perfbench/stats"
)

const (
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median, so one slow repetition does not move it.
	setupReps = 5
	// minRounds keeps op_p50_ms a median of several operations even
	// when one round outlasts --seconds.
	minRounds = 3
)

// op is one timed operation. run does the work and checks its output;
// it returns the layer counters it observed (kernel switches,
// messages, cells, ...) and an error when the check failed.
type op struct {
	name string
	run  func(b *bench, parent int) (map[string]float64, error)
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup prepares the inputs and reference results; it runs
	// setupReps times and must do the same work each time.
	setup(b *bench, parent int) error
	// round returns one round's operations, ordered by b.rng.
	round(b *bench) []op
	// close releases what setup acquired.
	close() error
}

var workloads = map[string]func() workload{
	"fig3-sweep":    func() workload { return &fig3Sweep{} },
	"real-numerics": func() workload { return &realNumerics{} },
	"study-replay":  func() workload { return &studyReplay{} },
}

// bench carries what every workload shares.
type bench struct {
	rng *rand.Rand
	tr  *tracer // nil when untraced
	// par bounds the sweep pool: two workers, never more than the
	// CPUs the process may use.
	par int
	// workDir is a private scratch directory inside the checkout.
	workDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output; its keys keep this order.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := run(os.Stdout, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(w io.Writer, args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	seed := fs.Int64("seed", 1, "seed that orders the operations of each round")
	seconds := fs.Int("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	rung := fs.Int("rung", 0, "run one Fig. 3 cell of this many ranks (a multiple of 48) and exit")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *rung > 0 {
		if err := runRung(w, *rung); err != nil {
			return 1, err
		}
		return 0, nil
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2, fmt.Errorf("need --workload (%s), --seconds ≥ 1 and --trace 0|1", strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 1, err
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(work)

	b := &bench{
		rng:     rand.New(rand.NewSource(*seed)),
		par:     min(2, runtime.NumCPU()),
		workDir: work,
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	wl := mk()
	res, roundWall, err := measure(b, wl, time.Duration(*seconds)*time.Second)
	if err == nil && b.tr != nil {
		res.Metrics, err = probeLayers(b, wl)
	}
	if cerr := wl.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 1, err
	}
	if b.tr != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", *name, *seed))
		if err := b.tr.write(path); err != nil {
			return 1, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(b.tr.spans), path)
	}
	report(w, *name, res, roundWall, b.tr != nil)
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed their checks", res.Failed, res.Attempted)
	}
	return 0, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure runs the set-up repetitions and the timed rounds and returns
// the end-to-end metrics, plus the median round wall time that the
// traced and untraced variants are compared by.
func measure(b *bench, wl workload, length time.Duration) (result, float64, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		id := b.tr.begin(0, "setup")
		if err := wl.setup(b, id); err != nil {
			return result{}, 0, fmt.Errorf("set-up: %w", err)
		}
		b.tr.end(id, nil)
		setups = append(setups, time.Since(start).Seconds())
	}

	res := result{Correct: true}
	var opMs []float64
	var rounds []cost
	deadline := time.Now().Add(length)
	for r := 0; len(rounds) < minRounds || time.Now().Before(deadline); r++ {
		var rc cost
		rid := b.tr.begin(0, "round")
		roundStart := takeSample()
		for _, o := range wl.round(b) {
			// A collection before every operation, outside its timing,
			// so no operation pays for its predecessor's garbage.
			runtime.GC()
			id := b.tr.begin(rid, "op."+o.name)
			before := takeSample()
			counters, err := o.run(b, id)
			c := takeSample().since(before)
			if b.tr != nil {
				if counters == nil {
					counters = map[string]float64{}
				}
				counters["round"] = float64(r)
				b.tr.end(id, counters)
			}
			rc.add(c)
			opMs = append(opMs, c.wall*1e3)
			res.Attempted++
			if err != nil {
				res.Failed++
				res.Correct = false
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.name, err)
			}
		}
		// The round's collections, the forced ones included.
		gc := takeSample().since(roundStart)
		b.tr.end(rid, map[string]float64{"round": float64(r), "gc_cpu_s": gc.gcCPU, "gc_cycles": gc.gcCycles})
		rounds = append(rounds, rc)
	}

	col := func(f func(cost) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, c := range rounds {
			out[i] = f(c)
		}
		return out
	}
	wall := stats.Median(col(func(c cost) float64 { return c.wall }))
	res.Metrics = map[string]metric{
		"setup_s":     {stats.Median(setups), "s"},
		"wall_s":      {wall, "s"},
		"cpu_s":       {stats.Median(col(func(c cost) float64 { return c.cpu })), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"alloc_mb":    {stats.Median(col(func(c cost) float64 { return c.allocs })) / 1e6, "MB"},
		"op_p50_ms":   {stats.Median(opMs), "ms"},
	}
	return res, wall, nil
}

// report prints every metric by name and unit, the operation counts,
// and the JSON result as the last line.
func report(w io.Writer, name string, res result, roundWall float64, traced bool) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "round_wall_s %.6f traced=%t\n", roundWall, traced)
	fmt.Fprintf(w, "%s: attempted %d, failed %d\n", name, res.Attempted, res.Failed)
	line, _ := json.Marshal(res) // plain structs and maps of floats always encode
	fmt.Fprintf(w, "%s\n", line)
}
