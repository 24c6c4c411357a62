package main

import (
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	containerhpc "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/krylov"
	"repro/internal/linalg"
	"repro/internal/mesh"
	"repro/internal/navier"
	"repro/internal/resultdb"
	"repro/internal/solid"
	"repro/perfbench/stats"
)

// ladder holds the rank-ladder rungs the traced run measures, 192,
// 768 and 3,072 ranks of the Fig. 3 case, each with the number of
// times it runs; a rung reports its median.
var ladder = []struct{ nodes, reps int }{{4, 3}, {16, 3}, {64, 1}}

// progressTail timestamps a sweep's cell completions, read from
// Options.Progress events.
type progressTail struct {
	mu    sync.Mutex
	times []time.Time
}

func (p *progressTail) note(experiments.ProgressEvent) {
	now := time.Now()
	p.mu.Lock()
	p.times = append(p.times, now)
	p.mu.Unlock()
}

// tail is the time from the second-to-last completion to end: how long
// the pool ran short of work at the end of the sweep.
func (p *progressTail) tail(end time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.times) < 2 {
		return 0
	}
	return end.Sub(p.times[len(p.times)-2]).Seconds()
}

// ladderCell runs one bare-metal Fig. 3 cell serially through RunCell
// and records its span with the counters the ladder metrics divide by.
func ladderCell(b *bench, parent, nodes int) (map[string]float64, error) {
	sp := fig3Spec(experiments.Fig2Variants()[0], nodes)
	before := takeSample()
	id := b.tr.begin(parent, "ladder.RunCell")
	res, err := runSpec(sp)
	c := takeSample().since(before)
	if err != nil {
		return nil, err
	}
	counters := map[string]float64{
		"ranks": float64(sp.Ranks), "messages": float64(res.Exec.MPI.TotalMessages),
		"switches": float64(res.Exec.MPI.Kernel.Switches), "alloc_bytes": c.allocs,
		"wall_s": c.wall,
	}
	b.tr.end(id, counters)
	return counters, nil
}

// runRung prints the ladder figures for one cell of the given ranks.
// The 12,288-rank rung needs about 4 GB and minutes, so it is a local
// command rather than part of any workload.
func runRung(w io.Writer, ranks int) error {
	per := containerhpc.MareNostrum4().CoresPerNode()
	if ranks%per != 0 {
		return fmt.Errorf("--rung %d: need a multiple of %d ranks (whole MareNostrum4 nodes)", ranks, per)
	}
	b := &bench{tr: newTracer()}
	c, err := ladderCell(b, 0, ranks/per)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ranks %d: %.3f s, %.0f messages, %.0f ns/message, %.1f KB allocated per rank, peak RSS %.0f MB\n",
		ranks, c["wall_s"], c["messages"], c["wall_s"]*1e9/c["messages"], c["alloc_bytes"]/c["ranks"]/1024, peakRSSMB())
	return nil
}

// probeLayers runs, after the traced rounds, the fixed calls that
// measure each layer on its own: the rank ladder, the serial numerics
// and the store, registry and report path. It then derives every
// per-layer metric from the spans of the whole traced run.
func probeLayers(b *bench, wl workload) (_ map[string]metric, err error) {
	first := len(b.tr.spans)
	root := b.tr.begin(0, "probe")
	for _, rung := range ladder {
		for i := 0; i < rung.reps; i++ {
			if _, err := ladderCell(b, root, rung.nodes); err != nil {
				return nil, fmt.Errorf("ladder: %w", err)
			}
		}
	}
	if err := probeNumerics(b, root); err != nil {
		return nil, fmt.Errorf("numerics probe: %w", err)
	}
	sr, reuse := wl.(*studyReplay)
	if !reuse {
		sr = &studyReplay{}
		defer func() {
			if cerr := sr.close(); err == nil {
				err = cerr
			}
		}()
		if err := sr.setup(b, root); err != nil {
			return nil, fmt.Errorf("store probe: %w", err)
		}
	}
	if err := sr.probe(b, root); err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	b.tr.end(root, nil)
	return derive(b.tr.spans, first), nil
}

// probeNumerics times the solvers serially with field.SeqComm: the
// fluid steps on the larger CFD mesh, wall steps on the larger FSI
// wall mesh, and pressure solves with the 7-point Laplacian.
func probeNumerics(b *bench, parent int) error {
	if _, err := serialCFD(b, parent, bigCFD(4)); err != nil {
		return err
	}
	wall := bigFSI(1)
	g, err := mesh.Decompose(wall.SolidMesh, 1)
	if err != nil {
		return err
	}
	s, err := solid.NewSolver(g.Part(0), wall.SolidParams, field.SeqComm{})
	if err != nil {
		return err
	}
	s.SetTraction(100)
	for i := 0; i < 100; i++ {
		id := b.tr.begin(parent, "solid.Solver.Step")
		_, err := s.Step()
		b.tr.end(id, nil)
		if err != nil {
			return err
		}
	}
	m := bigCFD(1).FluidMesh
	for i := 0; i < 5; i++ {
		if err := pressureSolve(b, parent, m); err != nil {
			return err
		}
	}
	return nil
}

// pressureSolve runs krylov.CG on −∇² with zero Dirichlet walls over
// the mesh, at the CFD cases' tolerance, from a zero start.
func pressureSolve(b *bench, parent int, m mesh.Mesh) error {
	nx, ny, nz := m.NX, m.NY, m.NZ
	at := func(x []float64, i, j, k int) float64 {
		if i < 0 || j < 0 || k < 0 || i >= nx || j >= ny || k >= nz {
			return 0
		}
		return x[m.Index(i, j, k)]
	}
	op := krylov.OperatorFunc(func(dst, src []float64) {
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					dst[m.Index(i, j, k)] = 6*src[m.Index(i, j, k)] -
						at(src, i-1, j, k) - at(src, i+1, j, k) -
						at(src, i, j-1, k) - at(src, i, j+1, k) -
						at(src, i, j, k-1) - at(src, i, j, k+1)
				}
			}
		}
	})
	rhs := make([]float64, m.Cells())
	linalg.Fill(rhs, 1)
	x := make([]float64, m.Cells())
	id := b.tr.begin(parent, "krylov.CG")
	res, err := krylov.CG(op, rhs, x, krylov.Options{Tol: containerhpc.QuickCFD(1).FluidParams.CGTol})
	b.tr.end(id, map[string]float64{"iterations": float64(res.Iterations), "cells": float64(m.Cells())})
	if err != nil {
		return err
	}
	if !res.Converged {
		return fmt.Errorf("pressure solve did not converge (residual %g after %d iterations)", res.Residual, res.Iterations)
	}
	return nil
}

// probe times the store path call by call: fingerprints, directory
// lookups, restores, commits, registry lookups, a registry replay and
// the rendering of the replayed figure.
func (s *studyReplay) probe(b *bench, parent int) error {
	opt := fig2Options(b.par)
	for _, sp := range containerhpc.Fig2Specs(opt) {
		id := b.tr.begin(parent, "core.CellSpec.Key")
		_, err := sp.Key()
		b.tr.end(id, nil)
		if err != nil {
			return err
		}
	}
	for rep := 0; rep < 3; rep++ {
		if err := s.lookups(b, parent); err != nil {
			return err
		}
	}
	var size, files float64
	id := b.tr.begin(parent, "resultdb.records")
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") || !resultdb.ValidKey(strings.TrimSuffix(d.Name(), ".json")) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += float64(info.Size())
		files++
		return nil
	})
	if err != nil {
		return err
	}
	b.tr.end(id, map[string]float64{"bytes": size, "files": files})
	if err := s.write(b, parent); err != nil {
		return err
	}
	for _, store := range []resultdb.Store{s.store, s.client} {
		id := b.tr.begin(parent, "replay")
		counters, err := s.replay(b, id, store)
		if err != nil {
			return err
		}
		counters["registry"] = 0
		if store == resultdb.Store(s.client) {
			counters["registry"] = 1
		}
		b.tr.end(id, counters)
	}
	return nil
}

// lookups times one lookup of every record in the directory store and
// through the registry, and one restore of each.
func (s *studyReplay) lookups(b *bench, parent int) error {
	for i, key := range s.keys {
		id := b.tr.begin(parent, "resultdb.DirStore.Lookup")
		_, ok, err := s.store.Lookup(key)
		b.tr.end(id, nil)
		if err != nil || !ok {
			return fmt.Errorf("lookup %s: found %t, %v", key, ok, err)
		}
		id = b.tr.begin(parent, "core.SavedResult.Restore")
		_ = s.saved[i].Restore(core.Cell{})
		b.tr.end(id, nil)
		id = b.tr.begin(parent, "registry.Client.Lookup")
		_, ok, err = s.client.Lookup(key)
		b.tr.end(id, nil)
		if err != nil || !ok {
			return fmt.Errorf("registry lookup %s: found %t, %v", key, ok, err)
		}
	}
	return nil
}

// derive computes the per-layer metrics from the spans of a traced
// run: round-scoped counters from the operation spans, and per-call
// times from the probe spans recorded from index probeFrom on.
func derive(spans []span, probeFrom int) map[string]metric {
	out := map[string]metric{}
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{v, unit}
	}
	probe := spans[probeFrom:]
	named := func(name string) []span {
		var s []span
		for _, sp := range probe {
			if sp.Name == name {
				s = append(s, sp)
			}
		}
		return s
	}
	medianOf := func(name string, unit float64) float64 {
		var d []float64
		for _, sp := range named(name) {
			d = append(d, sp.seconds()/unit)
		}
		return stats.Median(d)
	}

	// Round-scoped: sum each counter over a round's operations, then
	// take the median over rounds.
	type round map[string]float64
	var rounds []round
	var tails, lastOps []float64
	var cgIters, cgCells float64
	for _, sp := range spans[:probeFrom] {
		if sp.Name != "round" && !strings.HasPrefix(sp.Name, "op.") {
			continue
		}
		r := int(sp.Counters["round"])
		for len(rounds) <= r {
			rounds = append(rounds, round{})
			lastOps = append(lastOps, 0)
		}
		if sp.Name == "round" {
			rounds[r]["gc_cpu_s"] = sp.Counters["gc_cpu_s"]
			rounds[r]["gc_cycles"] = sp.Counters["gc_cycles"]
			continue
		}
		for k, v := range sp.Counters {
			if k == "workers_admitted" {
				rounds[r][k] = math.Max(rounds[r][k], v)
			} else {
				rounds[r][k] += v
			}
		}
		if t, ok := sp.Counters["tail_s"]; ok {
			tails = append(tails, t)
		}
		lastOps[r] = sp.seconds()
		cgIters += sp.Counters["cg_iters"]
		cgCells += sp.Counters["cg_cells"]
	}
	perRound := func(key string) float64 {
		var v []float64
		for _, r := range rounds {
			v = append(v, r[key])
		}
		return stats.Median(v)
	}
	set("vtime.switches", perRound("switches"), "count")
	set("vtime.heap_ops", perRound("heap_ops"), "count")
	set("vtime.wakes", perRound("wakes"), "count")
	set("mpi.messages", perRound("messages"), "count")
	set("mpi.payload_mb", perRound("payload_bytes")/1e6, "MB")
	set("go.gc_cpu_s", perRound("gc_cpu_s"), "s")
	set("go.gc_cycles", perRound("gc_cycles"), "count")
	set("experiments.cells", perRound("cells"), "count")
	set("experiments.workers_admitted", perRound("workers_admitted"), "count")
	set("alya.cg_iters_per_step", cgIters/cgCells, "count")
	// Sweeps report their tail from progress events; a round of
	// RunCell calls ends with its last cell alone.
	if len(tails) == 0 {
		tails = lastOps
	}
	set("experiments.tail_s", stats.Median(tails), "s")

	// The rank ladder: each rung's median over its repetitions.
	rungs := map[float64][]span{}
	for _, sp := range named("ladder.RunCell") {
		rungs[sp.Counters["ranks"]] = append(rungs[sp.Counters["ranks"]], sp)
	}
	var ladderS, ladderSwitches float64
	var ranksOrder []float64
	for ranks := range rungs {
		ranksOrder = append(ranksOrder, ranks)
	}
	sort.Float64s(ranksOrder)
	for _, ranks := range ranksOrder {
		sps := rungs[ranks]
		var secs, allocs []float64
		for _, sp := range sps {
			secs = append(secs, sp.seconds())
			allocs = append(allocs, sp.Counters["alloc_bytes"])
		}
		c, cell := sps[0].Counters, stats.Median(secs)
		r := fmt.Sprintf("_r%d", int(ranks))
		set("mpi.ns_per_msg"+r, cell*1e9/c["messages"], "ns")
		set("core.cell_s"+r, cell, "s")
		if r != "_r192" {
			set("core.alloc_kb_per_rank"+r, stats.Median(allocs)/ranks/1024, "KB")
		}
		ladderS += cell
		ladderSwitches += c["switches"]
	}
	set("vtime.ns_per_switch", ladderS*1e9/ladderSwitches, "ns")

	// Serial numerics.
	set("navier.step_ms", medianOf("navier.Solver.Step", 1e-3), "ms")
	set("solid.step_ms", medianOf("solid.Solver.Step", 1e-3), "ms")
	set("krylov.cg_ms", medianOf("krylov.CG", 1e-3), "ms")
	var mflops []float64
	for _, sp := range named("krylov.CG") {
		flops := sp.Counters["iterations"] * sp.Counters["cells"] * navier.CGIterFlopsPerCell
		mflops = append(mflops, flops/sp.seconds()/1e6)
	}
	set("navier.mflops_computed", stats.Median(mflops), "Mflop/s")

	// Store, registry and report.
	set("core.fingerprint_us", medianOf("core.CellSpec.Key", 1e-6), "us")
	set("core.restore_us", medianOf("core.SavedResult.Restore", 1e-6), "us")
	set("resultdb.lookup_us", medianOf("resultdb.DirStore.Lookup", 1e-6), "us")
	set("resultdb.put_ms", medianOf("resultdb.DirStore.Put", 1e-3), "ms")
	if rec := named("resultdb.records"); len(rec) > 0 {
		set("resultdb.record_kb", rec[0].Counters["bytes"]/rec[0].Counters["files"]/1024, "KB")
	}
	set("registry.lookup_ms", medianOf("registry.Client.Lookup", 1e-3), "ms")
	for _, sp := range named("replay") {
		if sp.Counters["registry"] == 1 {
			set("registry.requests", sp.Counters["requests"], "count")
			set("registry.retries", sp.Counters["retries"], "count")
		}
	}
	set("report.render_us", medianOf("report.Render(fig2)", 1e-6), "us")
	return out
}
