package main

import (
	"fmt"
	"math"

	containerhpc "repro"
	"repro/internal/alya"
	"repro/internal/field"
	"repro/internal/mesh"
	"repro/internal/navier"
)

// numericsCell is one ModeReal cell of the real-numerics workload.
type numericsCell struct {
	name    string
	cs      containerhpc.Case
	runtime containerhpc.Runtime
	nodes   int
	ranks   int
}

// bigCFD is a CFD case on a mesh built with NewMesh, 2.5 times the
// cells of QuickCFD, so the solvers rather than the set-up dominate.
func bigCFD(steps int) containerhpc.Case {
	cs := containerhpc.QuickCFD(steps)
	m, err := containerhpc.NewMesh(24, 24, 40, 1e-3)
	if err != nil {
		panic(err) // constant, valid dimensions
	}
	cs.Name, cs.FluidMesh = "big-cfd", m
	return cs
}

// bigFSI widens QuickFSI's fluid and wall meshes.
func bigFSI(steps int) containerhpc.Case {
	cs := containerhpc.QuickFSI(steps)
	f, err := containerhpc.NewMesh(16, 16, 24, 1e-3)
	if err != nil {
		panic(err)
	}
	s, err := containerhpc.NewMesh(16, 16, 8, 1e-3)
	if err != nil {
		panic(err)
	}
	cs.Name, cs.FluidMesh, cs.SolidMesh = "big-fsi", f, s
	return cs
}

// numericsCells is the fixed list; a seed only shuffles its order.
// Each case runs at 4 ranks on one Lenox node under bare metal, at 4
// ranks over two nodes under Docker and at 8 ranks over two nodes
// under Singularity, so halos cross the network and the runtime must
// not change the numbers. The count is odd so that the median
// operation falls inside one cell's cluster of latencies, not in the
// gap between two.
func numericsCells() []numericsCell {
	var cells []numericsCell
	for _, cs := range []containerhpc.Case{containerhpc.QuickCFD(5), bigCFD(4), bigFSI(5)} {
		cells = append(cells,
			numericsCell{name: cs.Name + "/bare-4", cs: cs, runtime: containerhpc.NewBareMetal(), nodes: 1, ranks: 4},
			numericsCell{name: cs.Name + "/docker-4", cs: cs, runtime: containerhpc.NewDocker(), nodes: 2, ranks: 4},
			numericsCell{name: cs.Name + "/singularity-8", cs: cs, runtime: containerhpc.NewSingularity(), nodes: 2, ranks: 8})
	}
	return cells
}

// solution is what a cell's numerics must reproduce.
type solution struct {
	cgIters, maxDiv float64
}

// realNumerics runs ModeReal cells through containerhpc.RunCell. One
// operation is one cell; a round is the whole list in seed order.
type realNumerics struct {
	cells []numericsCell
	// refs holds each case's reference solution: a serial
	// navier.Solver with field.SeqComm for CFD, and the two-rank run
	// (one fluid rank, one wall rank) for FSI.
	refs map[string]solution
}

func (n *realNumerics) setup(b *bench, parent int) error {
	n.cells = numericsCells()
	refs := map[string]solution{}
	for _, c := range n.cells {
		if _, done := refs[c.cs.Name]; done {
			continue
		}
		var ref solution
		var err error
		if c.cs.Kind == alya.FSI {
			ref, err = twoRankFSI(b, parent, c.cs)
		} else {
			ref, err = serialCFD(b, parent, c.cs)
		}
		if err != nil {
			return fmt.Errorf("%s reference: %w", c.cs.Name, err)
		}
		if old, ok := n.refs[c.cs.Name]; ok && old != ref {
			return fmt.Errorf("%s reference differs between set-up repetitions", c.cs.Name)
		}
		refs[c.cs.Name] = ref
	}
	n.refs = refs
	return nil
}

// serialCFD advances the case's fluid mesh as a single domain with
// field.SeqComm, apart from the MPI layer and the alya package.
func serialCFD(b *bench, parent int, cs containerhpc.Case) (solution, error) {
	g, err := mesh.Decompose(cs.FluidMesh, 1)
	if err != nil {
		return solution{}, err
	}
	s, err := navier.NewSolver(g.Part(0), cs.FluidParams, field.SeqComm{})
	if err != nil {
		return solution{}, err
	}
	var sol solution
	for step := 0; step < cs.SimSteps; step++ {
		id := b.tr.begin(parent, "navier.Solver.Step")
		st, err := s.Step()
		b.tr.end(id, map[string]float64{"cells": float64(cs.FluidMesh.Cells()), "cg_iters": float64(st.CGIterations)})
		if err != nil {
			return solution{}, err
		}
		sol.cgIters += float64(st.CGIterations)
		sol.maxDiv = st.MaxDivergence
	}
	sol.cgIters /= float64(cs.SimSteps)
	return sol, nil
}

func twoRankFSI(b *bench, parent int, cs containerhpc.Case) (solution, error) {
	id := b.tr.begin(parent, "containerhpc.RunCell")
	res, err := containerhpc.RunCell(containerhpc.Cell{
		Cluster: containerhpc.Lenox(), Runtime: containerhpc.NewBareMetal(), Case: cs,
		Nodes: 1, Ranks: 2, Threads: 1, Mode: containerhpc.ModeReal,
	})
	b.tr.end(id, nil)
	if err != nil {
		return solution{}, err
	}
	return solution{res.Exec.AvgCGIters, res.Exec.MaxDivergence}, nil
}

func (n *realNumerics) round(b *bench) []op {
	ops := make([]op, len(n.cells))
	for i, j := range b.rng.Perm(len(n.cells)) {
		c := n.cells[j]
		ops[i] = op{name: c.name, run: func(b *bench, parent int) (map[string]float64, error) {
			return n.cell(b, parent, c)
		}}
	}
	return ops
}

func (n *realNumerics) close() error { return nil }

func (n *realNumerics) cell(b *bench, parent int, c numericsCell) (map[string]float64, error) {
	img, err := containerhpc.BuildImage(c.runtime, containerhpc.Lenox(), containerhpc.SystemSpecific)
	if err != nil {
		return nil, err
	}
	id := b.tr.begin(parent, "containerhpc.RunCell")
	res, err := containerhpc.RunCell(containerhpc.Cell{
		Cluster: containerhpc.Lenox(), Runtime: c.runtime, Image: img, Case: c.cs,
		Nodes: c.nodes, Ranks: c.ranks, Threads: 1, Mode: containerhpc.ModeReal,
	})
	b.tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	k := res.Exec.MPI.Kernel
	counters := map[string]float64{
		"switches": float64(k.Switches), "heap_ops": float64(k.HeapOps), "wakes": float64(k.Wakes),
		"messages": float64(res.Exec.MPI.TotalMessages), "payload_bytes": float64(res.Exec.MPI.TotalBytes),
		"cg_iters": res.Exec.AvgCGIters, "cg_cells": 1,
	}
	return counters, checkSolution(res, n.refs[c.cs.Name])
}

// checkSolution compares a cell with its reference solution: equal CG
// iterations and final max |∇·u| within a relative 1e-6, and every
// figure finite.
func checkSolution(res containerhpc.Result, ref solution) error {
	e := res.Exec
	for _, v := range []float64{float64(e.TimePerStep), float64(e.Elapsed), e.AvgCGIters, e.MaxDivergence, e.CommFraction} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s at %d ranks: non-finite result %+v", e.Case, e.Ranks, e)
		}
	}
	if !near(e.AvgCGIters, ref.cgIters) || !near(e.MaxDivergence, ref.maxDiv) {
		return fmt.Errorf("%s at %d ranks: %.6g CG iterations and max |div u| %.9g, reference %.6g and %.9g",
			e.Case, e.Ranks, e.AvgCGIters, e.MaxDivergence, ref.cgIters, ref.maxDiv)
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Abs(b) }
