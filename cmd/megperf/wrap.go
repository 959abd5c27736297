package main

import (
	"meg/internal/core"
	"meg/internal/graph"
	"meg/internal/rng"
)

// layerCounts are the work counts a traced run reads at the model
// boundary.
type layerCounts struct {
	edges int64 // Σ Graph().M()
	churn int64 // Σ births + deaths of each Delta
}

// counted forwards core.Dynamics to the wrapped model and counts the
// edges of every snapshot it hands out.
type counted struct {
	d core.Dynamics
	c *layerCounts
}

func (w *counted) N() int           { return w.d.N() }
func (w *counted) Reset(r *rng.RNG) { w.d.Reset(r) }
func (w *counted) Step()            { w.d.Step() }

func (w *counted) Graph() *graph.Graph {
	g := w.d.Graph()
	w.c.edges += int64(g.M())
	return g
}

// deltaStepper forwards core.DeltaDynamics.StepDelta and counts churn.
type deltaStepper struct {
	dd core.DeltaDynamics
	c  *layerCounts
}

func (w deltaStepper) StepDelta() graph.Delta {
	dl := w.dd.StepDelta()
	w.c.churn += int64(len(dl.Births) + len(dl.Deaths))
	return dl
}

// parallelizer forwards core.Parallelizable.
type parallelizer struct{ p core.Parallelizable }

func (w parallelizer) SetParallelism(workers int) { w.p.SetParallelism(workers) }

// degreeHinter forwards core.DegreeHinter.
type degreeHinter struct{ h core.DegreeHinter }

func (w degreeHinter) ExpectedDegree() float64 { return w.h.ExpectedDegree() }

// wrapModel returns d behind a counting wrapper that implements exactly
// the optional engine interfaces d implements — DeltaDynamics,
// Parallelizable, DegreeHinter — so the engines dispatch on the wrapper
// as they would on d.
func wrapModel(d core.Dynamics, c *layerCounts) core.Dynamics {
	base := &counted{d: d, c: c}
	dd, isDelta := d.(core.DeltaDynamics)
	pz, isPar := d.(core.Parallelizable)
	dh, isHint := d.(core.DegreeHinter)
	ds, pa, hi := deltaStepper{dd, c}, parallelizer{pz}, degreeHinter{dh}
	switch {
	case isDelta && isPar && isHint:
		return &struct {
			*counted
			deltaStepper
			parallelizer
			degreeHinter
		}{base, ds, pa, hi}
	case isDelta && isPar:
		return &struct {
			*counted
			deltaStepper
			parallelizer
		}{base, ds, pa}
	case isDelta && isHint:
		return &struct {
			*counted
			deltaStepper
			degreeHinter
		}{base, ds, hi}
	case isPar && isHint:
		return &struct {
			*counted
			parallelizer
			degreeHinter
		}{base, pa, hi}
	case isDelta:
		return &struct {
			*counted
			deltaStepper
		}{base, ds}
	case isPar:
		return &struct {
			*counted
			parallelizer
		}{base, pa}
	case isHint:
		return &struct {
			*counted
			degreeHinter
		}{base, hi}
	default:
		return base
	}
}
