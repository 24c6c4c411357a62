package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	containerhpc "repro"
	"repro/internal/alya"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/resultdb"
	"repro/internal/units"
)

// fakeWorkload runs a few microseconds of real work per operation so
// that every end-to-end metric reads above zero.
type fakeWorkload struct {
	fail bool
	sink []byte
}

func (f *fakeWorkload) setup(*bench, int) error { return nil }
func (f *fakeWorkload) close() error            { return nil }
func (f *fakeWorkload) round(*bench) []op {
	work := func(*bench, int) (map[string]float64, error) {
		for end := time.Now().Add(2 * time.Millisecond); time.Now().Before(end); {
			f.sink = make([]byte, 1<<16)
		}
		if f.fail {
			return nil, errors.New("wrong answer")
		}
		return nil, nil
	}
	return []op{{"a", work}, {"b", work}, {"c", work}}
}

func newTestBench() *bench { return &bench{rng: rand.New(rand.NewSource(1)), par: 1} }

func TestResultLineFormat(t *testing.T) {
	res, wall, err := measure(newTestBench(), &fakeWorkload{}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, "fake", res, wall, false)
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")

	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %s", got)
	}
	var parsed result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
		t.Fatal(err)
	}
	if !parsed.Correct || parsed.Failed != 0 || parsed.Attempted < minRounds*3 || parsed.Attempted%3 != 0 {
		t.Errorf("correct %t, attempted %d, failed %d: want whole rounds of 3 and no failures",
			parsed.Correct, parsed.Attempted, parsed.Failed)
	}
	want := map[string]string{"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "alloc_mb": "MB", "op_p50_ms": "ms"}
	if len(parsed.Metrics) != len(want) {
		t.Errorf("metrics %v, want exactly %v", parsed.Metrics, want)
	}
	text := strings.Join(lines[:len(lines)-1], "\n")
	for name, unit := range want {
		m, ok := parsed.Metrics[name]
		if !ok || m.Unit != unit || !(m.Value > 0) {
			t.Errorf("metric %s = %+v, want a positive value in %s", name, m, unit)
		}
		if !strings.Contains(text, name) {
			t.Errorf("metric %s is not printed by name before the result line", name)
		}
	}
}

func TestFailedOperationsAreCounted(t *testing.T) {
	res, _, err := measure(newTestBench(), &fakeWorkload{fail: true}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
		t.Errorf("correct %t, attempted %d, failed %d: want every operation failed", res.Correct, res.Attempted, res.Failed)
	}
}

// fig3Fixture is a study that satisfies every claim: bare metal and
// system-specific scale ideally, self-contained as the square root.
func fig3Fixture() (*experiments.Fig3Result, []fig3Ref) {
	fab := containerhpc.MareNostrum4().Interconnect
	res := &experiments.Fig3Result{Nodes: fig3Nodes, Fabrics: []string{fab.Native.Name, fab.Native.Name, fab.TCPFallback.Name}}
	for i, label := range []string{"Bare-metal", "Singularity system-specific", "Singularity self-contained"} {
		s := metrics.Series{Label: label}
		for _, n := range fig3Nodes {
			t := 100 / float64(n)
			if i == 2 {
				t = 100 / math.Sqrt(float64(n))
			}
			s.Points = append(s.Points, metrics.Point{X: n, T: units.Seconds(t)})
		}
		res.Series = append(res.Series, s)
	}
	var ref containerhpc.Result
	ref.Exec.Elapsed = 25
	return res, []fig3Ref{{variant: 0, nodes: 4, exec: ref}}
}

func TestFig3CheckCatchesWrongStudies(t *testing.T) {
	res, refs := fig3Fixture()
	if err := checkFig3(res, refs); err != nil {
		t.Fatalf("a study meeting every claim fails: %v", err)
	}
	last := len(fig3Nodes) - 1
	for name, spoil := range map[string]func(*experiments.Fig3Result, []fig3Ref){
		"system-specific 10% slower": func(r *experiments.Fig3Result, _ []fig3Ref) { r.Series[1].Points[last].T *= 1.1 },
		"bare metal stops rising": func(r *experiments.Fig3Result, _ []fig3Ref) {
			r.Series[0].Points[last].T = r.Series[0].Points[last-1].T
		},
		"self-contained scales ideally": func(r *experiments.Fig3Result, _ []fig3Ref) { r.Series[2] = r.Series[0] },
		"self-contained on the fabric":  func(r *experiments.Fig3Result, _ []fig3Ref) { r.Fabrics[2] = r.Fabrics[0] },
		"cell differs from RunCell":     func(_ *experiments.Fig3Result, refs []fig3Ref) { refs[0].exec.Exec.Elapsed += 1e-9 },
		"a node count missing":          func(r *experiments.Fig3Result, _ []fig3Ref) { r.Series[1].Points = r.Series[1].Points[:last] },
	} {
		res, refs := fig3Fixture()
		spoil(res, refs)
		if err := checkFig3(res, refs); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestNumericsCheckCatchesWrongSolutions(t *testing.T) {
	ref := solution{cgIters: 98, maxDiv: 11.9867439}
	good := func() containerhpc.Result {
		var r containerhpc.Result
		r.Exec = alya.Result{Case: "quick-cfd", Ranks: 4, TimePerStep: 0.5, Elapsed: 2.5, AvgCGIters: 98, MaxDivergence: 11.9867439}
		return r
	}
	if err := checkSolution(good(), ref); err != nil {
		t.Fatalf("matching solution fails: %v", err)
	}
	for name, spoil := range map[string]func(*containerhpc.Result){
		"one more CG iteration":  func(r *containerhpc.Result) { r.Exec.AvgCGIters++ },
		"divergence off by 1e-5": func(r *containerhpc.Result) { r.Exec.MaxDivergence *= 1 + 1e-5 },
		"non-finite time":        func(r *containerhpc.Result) { r.Exec.TimePerStep = units.Seconds(math.NaN()) },
		"infinite divergence":    func(r *containerhpc.Result) { r.Exec.MaxDivergence = math.Inf(1) },
	} {
		r := good()
		spoil(&r)
		if err := checkSolution(r, ref); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestReplayCheckCatchesWrongReplays(t *testing.T) {
	cold := []byte("Fig 2: elapsed time\n  2  41.7  41.9  44.0\n")
	hit := func(hits, computed int64) *experiments.SweepStats {
		var st experiments.SweepStats
		st.Hits.Store(hits)
		st.Computed.Store(computed)
		return &st
	}
	if err := checkReplay(bytes.Clone(cold), cold, hit(12, 0), 12, 0); err != nil {
		t.Fatalf("faithful replay fails: %v", err)
	}
	flipped := bytes.Clone(cold)
	flipped[len(flipped)-3] ^= 1
	if err := checkReplay(flipped, cold, hit(12, 0), 12, 0); err == nil {
		t.Error("replay rendering a flipped byte passed")
	}
	if err := checkReplay(bytes.Clone(cold), cold, hit(11, 1), 12, 0); err == nil {
		t.Error("replay that simulated a cell passed")
	}
	if err := checkReplay(bytes.Clone(cold), cold, hit(12, 0), 12, 1); err == nil {
		t.Error("replay with a retried request passed")
	}
}

func TestRecordCheckCatchesAFlippedByte(t *testing.T) {
	dir := t.TempDir()
	key := strings.Repeat("ab", 32)
	rec := core.SavedResult{Exec: alya.Result{Case: "artery-cfd-ctepower", Ranks: 80, AvgCGIters: 10,
		MPI: mpi.Stats{TotalMessages: 123456, RankEnd: []units.Seconds{1.25, 1.5}}}}
	store, err := resultdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, rec); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	want := []core.SavedResult{rec}
	if err := checkRecords(dir, []string{key}, want); err != nil {
		t.Fatalf("intact record fails: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", key+".json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("record file: %v %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("123456"))
	if i < 0 {
		t.Fatalf("message count not found in %s", data)
	}
	data[i+2] ^= 1 // 3 becomes 2: still valid JSON, one message fewer
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkRecords(dir, []string{key}, want); err == nil {
		t.Error("record with a flipped byte passed")
	}
}

// The sweep calls the traced variant's store and progress taps from
// its workers at once.
func TestSweepTapsTakeConcurrentWorkers(t *testing.T) {
	c := &captureStore{saved: map[string]core.SavedResult{}}
	p := &progressTail{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := c.Put(strconv.Itoa(w*100+i), core.SavedResult{}); err != nil {
					t.Error(err)
				}
				p.note(experiments.ProgressEvent{})
			}
		}()
	}
	wg.Wait()
	if len(c.saved) != 400 || len(p.times) != 400 {
		t.Errorf("kept %d results and %d completions, want 400 each", len(c.saved), len(p.times))
	}
	if p.tail(time.Now()) < 0 {
		t.Error("negative tail")
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--rung", "100"},
		{"--workload", "no-such-workload"},
		{"--workload", "fig3-sweep", "--trace", "2"},
		{"--workload", "fig3-sweep", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code, err := run(&out, args); code == 0 || err == nil || strings.Contains(out.String(), "{") {
			t.Errorf("%v: exit %d, error %v, output %q", args, code, err, out.String())
		}
	}
}
