package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	containerhpc "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/resultdb"
)

// fig3Nodes are the quick study's node counts: 192 to 3,072 ranks.
var fig3Nodes = []int{4, 8, 16, 32, 64}

// fig3CGIters trims the paper's 100 pressure-CG iterations per step so
// that one run holds several studies. The communicator set-up, whose
// cost grows with the square of the ranks, does not depend on it.
const fig3CGIters = 8

// fig3Case is the Fig. 3 FSI case as the workload and the rank ladder
// run it.
func fig3Case() containerhpc.Case {
	cs := containerhpc.ArteryFSIMareNostrum4()
	cs.ModelCGIters = fig3CGIters
	return cs
}

// fig3Spec is the sweep cell Fig3 builds for one variant and node
// count; its key finds the cell among the results a traced study
// commits.
func fig3Spec(v experiments.Fig2Variant, nodes int) experiments.CellSpec {
	mn4 := containerhpc.MareNostrum4()
	return experiments.CellSpec{
		Label: fmt.Sprintf("fig3 %s %d nodes", v.Label, nodes), Cluster: mn4,
		Runtime: v.Runtime, Kind: v.Kind, Case: fig3Case(),
		Nodes: nodes, Ranks: nodes * mn4.CoresPerNode(), Threads: 1,
		Mode: containerhpc.ModeModel, Allreduce: mpi.AllreduceHierarchical,
	}
}

// runSpec runs a sweep cell directly through the facade's RunCell,
// apart from the sweep engine.
func runSpec(sp experiments.CellSpec) (containerhpc.Result, error) {
	img, err := containerhpc.BuildImage(sp.Runtime, sp.Cluster, sp.Kind)
	if err != nil {
		return containerhpc.Result{}, err
	}
	return containerhpc.RunCell(containerhpc.Cell{
		Cluster: sp.Cluster, Runtime: sp.Runtime, Image: img, Case: sp.Case,
		Nodes: sp.Nodes, Ranks: sp.Ranks, Threads: sp.Threads,
		Mode: sp.Mode, Allreduce: sp.Allreduce,
	})
}

// fig3Ref is a cell computed in set-up through RunCell: the study's
// own cell must match it exactly.
type fig3Ref struct {
	variant, nodes int
	key            string
	exec           containerhpc.Result
}

// fig3Sweep regenerates the quick Fig. 3 study: three variants × five
// node counts in model mode, through containerhpc.Fig3 on a two-worker
// pool with no store, rendered to bytes. One operation is one study.
type fig3Sweep struct {
	refs []fig3Ref
	// first is the first study's rendering; every later one must
	// match it byte for byte.
	first []byte
}

func (f *fig3Sweep) setup(b *bench, parent int) error {
	// Every variant at the smallest point, plus the untimed warm-up
	// cell: bare metal at 768 ranks.
	cells := [][2]int{{0, 4}, {1, 4}, {2, 4}, {0, 16}}
	variants := experiments.Fig2Variants()
	var refs []fig3Ref
	for _, c := range cells {
		sp := fig3Spec(variants[c[0]], c[1])
		key, err := sp.Key()
		if err != nil {
			return err
		}
		id := b.tr.begin(parent, "containerhpc.RunCell")
		res, err := runSpec(sp)
		b.tr.end(id, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Label, err)
		}
		refs = append(refs, fig3Ref{variant: c[0], nodes: c[1], key: key, exec: res})
	}
	for i, r := range f.refs {
		if refs[i].exec.Exec.Elapsed != r.exec.Exec.Elapsed {
			return fmt.Errorf("reference cell %d differs between set-up repetitions", i)
		}
	}
	f.refs = refs
	return nil
}

func (f *fig3Sweep) round(b *bench) []op {
	return []op{{name: "fig3", run: f.study}}
}

func (f *fig3Sweep) close() error { return nil }

func (f *fig3Sweep) study(b *bench, parent int) (map[string]float64, error) {
	var st experiments.SweepStats
	opt := containerhpc.Options{
		NodePoints: fig3Nodes, Case: fig3Case(), Parallelism: b.par, Stats: &st,
	}
	// The traced variant reads each cell's counters from the results
	// the sweep commits to an in-memory store, and the tail from the
	// progress events.
	var capture *captureStore
	var prog *progressTail
	if b.tr != nil {
		capture = &captureStore{saved: map[string]core.SavedResult{}}
		opt.Store = capture
		prog = &progressTail{}
		opt.Progress = prog.note
	}
	id := b.tr.begin(parent, "containerhpc.Fig3")
	res, err := containerhpc.Fig3(opt)
	end := time.Now()
	b.tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	id = b.tr.begin(parent, "report.Render(fig3)")
	res.Render(&out)
	res.RenderChart(&out)
	b.tr.end(id, nil)

	k := st.Kernel()
	_, adm := st.Admission()
	counters := map[string]float64{
		"switches": float64(k.Switches), "heap_ops": float64(k.HeapOps), "wakes": float64(k.Wakes),
		"cells": float64(st.Computed.Load() + st.Hits.Load()), "workers_admitted": float64(adm),
	}
	if err := checkFig3(res, f.refs); err != nil {
		return counters, err
	}
	if capture != nil {
		counters["tail_s"] = prog.tail(end)
		if err := capture.fold(counters, f.refs); err != nil {
			return counters, err
		}
	}
	if f.first == nil {
		f.first = out.Bytes()
	} else if !bytes.Equal(out.Bytes(), f.first) {
		return counters, fmt.Errorf("study rendered different bytes than the run's first study")
	}
	return counters, nil
}

// checkFig3 holds the study to the paper's claims and to the cells
// computed apart from the sweep.
func checkFig3(res *experiments.Fig3Result, refs []fig3Ref) error {
	const bare, sys, self = 0, 1, 2
	if len(res.Series) != 3 || len(res.Fabrics) != 3 || len(res.Nodes) != len(fig3Nodes) {
		return fmt.Errorf("fig3 has %d series over %d node counts, want 3 over %d", len(res.Series), len(res.Nodes), len(fig3Nodes))
	}
	sp := make([][]float64, 3)
	for i := range res.Series {
		if len(res.Series[i].Points) != len(fig3Nodes) {
			return fmt.Errorf("series %q has %d points", res.Series[i].Label, len(res.Series[i].Points))
		}
		sp[i] = res.Series[i].Speedup()
	}
	last := len(fig3Nodes) - 1
	for i := range fig3Nodes {
		if d := sp[sys][i]/sp[bare][i] - 1; d > 0.05 || d < -0.05 {
			return fmt.Errorf("system-specific speedup %.3f is %.1f%% off bare metal's %.3f at %d nodes",
				sp[sys][i], 100*d, sp[bare][i], fig3Nodes[i])
		}
		if i > 0 && !(sp[bare][i] > sp[bare][i-1]) {
			return fmt.Errorf("bare-metal speedup stops rising at %d nodes (%.3f after %.3f)",
				fig3Nodes[i], sp[bare][i], sp[bare][i-1])
		}
	}
	if sp[self][last] > 0.75*sp[bare][last] {
		return fmt.Errorf("self-contained speedup %.3f exceeds 0.75 of bare metal's %.3f at %d nodes",
			sp[self][last], sp[bare][last], fig3Nodes[last])
	}
	fab := containerhpc.MareNostrum4().Interconnect
	want := []string{fab.Native.Name, fab.Native.Name, fab.TCPFallback.Name}
	for i, w := range want {
		if res.Fabrics[i] != w {
			return fmt.Errorf("series %q used fabric %q, want %q", res.Series[i].Label, res.Fabrics[i], w)
		}
	}
	for _, r := range refs {
		t, err := res.Series[r.variant].TimeAt(r.nodes)
		if err != nil {
			return err
		}
		if t != r.exec.Exec.Elapsed {
			return fmt.Errorf("%s at %d nodes: study elapsed %v, RunCell elapsed %v",
				res.Series[r.variant].Label, r.nodes, t, r.exec.Exec.Elapsed)
		}
	}
	return nil
}

// captureStore is an in-memory result store that never hits and keeps
// what the sweep commits, so the traced variant can read per-cell
// counters that Fig3Result does not carry.
type captureStore struct {
	mu    sync.Mutex
	saved map[string]core.SavedResult
}

var _ resultdb.Store = (*captureStore)(nil)

func (c *captureStore) Get(string) (core.SavedResult, bool) { return core.SavedResult{}, false }
func (c *captureStore) Lookup(string) (resultdb.Entry, bool, error) {
	return resultdb.Entry{}, false, nil
}
func (c *captureStore) PutError(string, string) error { return nil }
func (c *captureStore) Keys() []string                { return nil }
func (c *captureStore) Stats() resultdb.StoreStats    { return resultdb.StoreStats{} }
func (c *captureStore) Close() error                  { return nil }
func (c *captureStore) Put(key string, res core.SavedResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.saved[key] = res
	return nil
}

// fold adds the committed cells' traffic and solver iterations to
// counters and checks the reference cells' traffic: tracing must not
// change a single simulated message.
func (c *captureStore) fold(counters map[string]float64, refs []fig3Ref) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.saved))
	for k := range c.saved {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := c.saved[k]
		counters["messages"] += float64(s.Exec.MPI.TotalMessages)
		counters["payload_bytes"] += float64(s.Exec.MPI.TotalBytes)
		counters["cg_iters"] += s.Exec.AvgCGIters
		counters["cg_cells"]++
	}
	for _, r := range refs {
		s, ok := c.saved[r.key]
		if !ok {
			return fmt.Errorf("traced study committed no cell for key %s", r.key)
		}
		if s.Exec.MPI.TotalMessages != r.exec.Exec.MPI.TotalMessages || s.Exec.MPI.TotalBytes != r.exec.Exec.MPI.TotalBytes {
			return fmt.Errorf("traced cell %s: %d messages / %v, untraced RunCell: %d / %v", r.key,
				s.Exec.MPI.TotalMessages, s.Exec.MPI.TotalBytes, r.exec.Exec.MPI.TotalMessages, r.exec.Exec.MPI.TotalBytes)
		}
	}
	return nil
}
