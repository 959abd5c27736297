// Package graph provides the static undirected graph snapshot type that
// every evolving-graph model in this repository materializes once per
// time step, together with the algorithms the experiments need: BFS,
// connected components, degree statistics, and neighborhood queries.
//
// Snapshots use a compressed sparse row (CSR) layout: two flat slices
// instead of per-node adjacency slices, which keeps per-step allocation
// and GC pressure low when a simulation rebuilds the graph thousands of
// times. A Builder can be reused across steps to recycle its buffers.
package graph

import (
	"fmt"
	"sync/atomic"

	"meg/internal/par"
)

// Graph is an undirected graph over the node set [0, n) in CSR form.
// Both directions of every edge are stored, so Degree and Neighbors are
// O(1) and O(deg) respectively.
//
// Two storage layouts share the type: the packed layout Build produces
// (lens == nil; the neighbor list of u is adj[offs[u]:offs[u+1]]) and
// the slack layout Mutable maintains (lens non-nil; row u occupies the
// capacity range adj[offs[u]:offs[u+1]] but only its first lens[u]
// entries are live). All read methods work on both.
type Graph struct {
	n      int
	offs   []int32 // len n+1; row u's storage is adj[offs[u]:offs[u+1]]
	adj    []int32
	lens   []int32 // nil for packed CSR; else live row lengths (slack layout)
	mCount int     // number of undirected edges
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.mCount }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	if g.lens != nil {
		return int(g.lens[u])
	}
	return int(g.offs[u+1] - g.offs[u])
}

// Neighbors returns the neighbor list of u. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	off := g.offs[u]
	if g.lens != nil {
		return g.adj[off : off+g.lens[u]]
	}
	return g.adj[off:g.offs[u+1]]
}

// HasEdge reports whether {u, v} is an edge. It scans u's (or v's,
// whichever is shorter) neighbor list.
func (g *Graph) HasEdge(u, v int) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	for _, w := range g.Neighbors(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// MaxDegree returns the largest degree in the graph (0 for empty
// graphs).
func (g *Graph) MaxDegree() int {
	best := 0
	for u := 0; u < g.n; u++ {
		if d := g.Degree(u); d > best {
			best = d
		}
	}
	return best
}

// AvgDegree returns the average degree 2m/n, or 0 for an empty node set.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.mCount) / float64(g.n)
}

// Builder accumulates undirected edges and produces CSR snapshots.
// Builders may be reused: Reset clears the edge list but keeps the
// allocated buffers, so steady-state simulation loops allocate nothing.
type Builder struct {
	n      int
	srcs   []int32
	dsts   []int32
	counts []int32
}

// NewBuilder returns a Builder for graphs over [0, n).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n, counts: make([]int32, n+1)}
}

// N returns the node count the builder was created with.
func (b *Builder) N() int { return b.n }

// Reset clears accumulated edges, optionally resizing the node universe.
func (b *Builder) Reset(n int) {
	if n < 0 {
		panic("graph: negative node count")
	}
	b.n = n
	b.srcs = b.srcs[:0]
	b.dsts = b.dsts[:0]
	if cap(b.counts) < n+1 {
		b.counts = make([]int32, n+1)
	}
}

// AddEdge records the undirected edge {u, v}. Self-loops and duplicate
// insertions are the caller's responsibility to avoid (the models in
// this repository never produce them). It panics if either endpoint is
// out of range.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, b.n))
	}
	if u == v {
		panic("graph: self-loop")
	}
	b.srcs = append(b.srcs, int32(u))
	b.dsts = append(b.dsts, int32(v))
}

// NumEdges returns the number of edges recorded so far.
func (b *Builder) NumEdges() int { return len(b.srcs) }

// AddEdgesBulk appends a batch of undirected edges {srcs[i], dsts[i]}.
// It validates endpoints like AddEdge but amortizes the call overhead,
// which matters when a parallel snapshot sweep hands over millions of
// edges in per-shard buffers.
func (b *Builder) AddEdgesBulk(srcs, dsts []int32) {
	if len(srcs) != len(dsts) {
		panic("graph: AddEdgesBulk length mismatch")
	}
	n := int32(b.n)
	for i := range srcs {
		u, v := srcs[i], dsts[i]
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, b.n))
		}
		if u == v {
			panic("graph: self-loop")
		}
	}
	b.srcs = append(b.srcs, srcs...)
	b.dsts = append(b.dsts, dsts...)
}

// AddEdgeBlocks appends the edges of every (srcs[i], dsts[i]) block in
// block order, copying and validating blocks concurrently on up to
// workers goroutines — the handover path for parallel snapshot sweeps,
// whose per-shard buffers would otherwise funnel through a serial
// append. The resulting edge list is identical to calling AddEdgesBulk
// per block in order, for every worker count.
func (b *Builder) AddEdgeBlocks(workers int, srcs, dsts [][]int32) {
	if len(srcs) != len(dsts) {
		panic("graph: AddEdgeBlocks length mismatch")
	}
	offs := make([]int, len(srcs)+1)
	for i := range srcs {
		if len(srcs[i]) != len(dsts[i]) {
			panic("graph: AddEdgeBlocks length mismatch")
		}
		offs[i+1] = offs[i] + len(srcs[i])
	}
	base := len(b.srcs)
	b.srcs = growInt32(b.srcs, offs[len(srcs)])
	b.dsts = growInt32(b.dsts, offs[len(srcs)])
	n := int32(b.n)
	var bad atomic.Bool
	par.Do(workers, len(srcs), func(i int) {
		copy(b.srcs[base+offs[i]:base+offs[i+1]], srcs[i])
		copy(b.dsts[base+offs[i]:base+offs[i+1]], dsts[i])
		for j := range srcs[i] {
			u, v := srcs[i][j], dsts[i][j]
			if u < 0 || u >= n || v < 0 || v >= n || u == v {
				bad.Store(true)
			}
		}
	})
	if bad.Load() {
		panic("graph: AddEdgeBlocks: edge endpoint out of range or self-loop")
	}
}

// growInt32 extends s by extra entries (contents unspecified) without
// the intermediate allocation append(s, make(...)...) would cost.
func growInt32(s []int32, extra int) []int32 {
	want := len(s) + extra
	if cap(s) >= want {
		return s[:want]
	}
	ns := make([]int32, want)
	copy(ns, s)
	return ns
}

// BlockSweep is the reusable scaffold of a parallel snapshot sweep: it
// owns per-block edge buffers and runs the
// split-sweep-handover-build pipeline every evolving-graph model's
// Graph() shares. The zero value is ready for use; buffers persist
// across rounds so steady-state sweeps allocate nothing.
type BlockSweep struct {
	srcs, dsts [][]int32
}

// Run splits [0, items) into one contiguous block per worker, invokes
// sweep on each block to fill its private buffer pair (sweep must
// append edges in ascending block order and return the extended
// slices), hands the blocks to b in block order, and builds the CSR
// snapshot on the same pool. Because block concatenation reproduces the
// single-block left-to-right emission and BuildParallel is
// byte-identical for every worker count, so is the snapshot.
func (bs *BlockSweep) Run(b *Builder, workers, items int, sweep func(lo, hi int, srcs, dsts []int32) ([]int32, []int32)) *Graph {
	p := workers
	if p > items {
		p = items
	}
	if p < 1 {
		p = 1
	}
	if len(bs.srcs) < p {
		bs.srcs = append(bs.srcs, make([][]int32, p-len(bs.srcs))...)
		bs.dsts = append(bs.dsts, make([][]int32, p-len(bs.dsts))...)
	}
	par.ForBlocks(p, items, func(blk, lo, hi int) {
		bs.srcs[blk], bs.dsts[blk] = sweep(lo, hi, bs.srcs[blk][:0], bs.dsts[blk][:0])
	})
	b.AddEdgeBlocks(p, bs.srcs[:p], bs.dsts[:p])
	return b.BuildParallel(p)
}

// Build produces the CSR snapshot for the recorded edges using a
// counting sort over endpoints; O(n + m) time. It is BuildParallel
// with one block.
func (b *Builder) Build() *Graph {
	return b.BuildParallel(1)
}

// BuildParallel is the counting-sort CSR build on a worker pool. Both
// the degree count and the adjacency scatter run over contiguous node
// blocks: every worker scans the full edge list but touches only the
// counters and adjacency slots of nodes in its own block, so writes
// never race and — because each worker visits edges in the same global
// order — the produced CSR arrays are byte-identical for every worker
// count. The extra work is one redundant edge scan per extra block,
// which memory bandwidth absorbs long before a single block's latency
// does. One block runs inline on the calling goroutine.
func (b *Builder) BuildParallel(workers int) *Graph {
	workers = par.Workers(workers)
	n, m := b.n, len(b.srcs)
	// Below ~1M endpoint updates the fork/join overhead and the
	// redundant scans cost more than they save: use one block.
	if m < 1<<19 {
		workers = 1
	}
	offs := make([]int32, n+1)
	adj := make([]int32, 2*m)
	srcs, dsts := b.srcs, b.dsts
	counts := b.counts[:n+1]
	par.ForBlocks(workers, n, func(_, lo, hi int) {
		l, h := int32(lo), int32(hi)
		// A node u in [lo, hi) increments counts[u+1], so this block
		// owns exactly counts[lo+1 .. hi] — disjoint from its
		// neighbors. counts[0] is never read or written.
		for i := lo + 1; i <= hi; i++ {
			counts[i] = 0
		}
		for i := 0; i < m; i++ {
			if u := srcs[i]; u >= l && u < h {
				//meg:shard-safe the l<=u<h guard above confines the slot to this block's counts[lo+1..hi]
				counts[u+1]++
			}
			if v := dsts[i]; v >= l && v < h {
				//meg:shard-safe the l<=v<h guard above confines the slot to this block's counts[lo+1..hi]
				counts[v+1]++
			}
		}
	})
	for i := 0; i < n; i++ {
		offs[i+1] = offs[i] + counts[i+1]
	}
	par.ForBlocks(workers, n, func(_, lo, hi int) {
		l, h := int32(lo), int32(hi)
		cursor := make([]int32, hi-lo)
		copy(cursor, offs[lo:hi])
		for i := 0; i < m; i++ {
			if u := srcs[i]; u >= l && u < h {
				adj[cursor[u-l]] = dsts[i]
				cursor[u-l]++
			}
			if v := dsts[i]; v >= l && v < h {
				adj[cursor[v-l]] = srcs[i]
				cursor[v-l]++
			}
		}
	})
	return &Graph{n: n, offs: offs, adj: adj, mCount: m}
}

// FromEdges builds a graph over [0, n) from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Empty returns the edgeless graph over [0, n).
func Empty(n int) *Graph { return NewBuilder(n).Build() }

// Path returns the path graph 0-1-…-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// Cycle returns the cycle graph on n ≥ 3 nodes.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: cycle needs at least 3 nodes")
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// Complete returns the complete graph on n nodes.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Star returns the star graph with center 0 and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// BFS computes hop distances from src; unreachable nodes get -1.
// The optional dist slice is reused when it has length n.
func (g *Graph) BFS(src int, dist []int32) []int32 {
	if dist == nil || len(dist) != g.n {
		dist = make([]int32, g.n)
	}
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, g.n)
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the largest finite BFS distance from src and
// whether every node is reachable.
func (g *Graph) Eccentricity(src int) (ecc int, connected bool) {
	dist := g.BFS(src, nil)
	connected = true
	for _, d := range dist {
		if d < 0 {
			connected = false
			continue
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc, connected
}

// Components labels each node with a component id in [0, k) and returns
// the labels and the number k of connected components.
func (g *Graph) Components() (labels []int32, k int) {
	labels = make([]int32, g.n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, g.n)
	for s := 0; s < g.n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = int32(k)
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(int(u)) {
				if labels[v] < 0 {
					labels[v] = int32(k)
					queue = append(queue, v)
				}
			}
		}
		k++
	}
	return labels, k
}

// Connected reports whether the graph has exactly one connected
// component (true for the empty graph on ≤ 1 nodes).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	_, k := g.Components()
	return k == 1
}

// LargestComponentSize returns the size of the largest connected
// component (0 for an empty node set).
func (g *Graph) LargestComponentSize() int {
	if g.n == 0 {
		return 0
	}
	labels, k := g.Components()
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for _, s := range sizes {
		if s > best {
			best = s
		}
	}
	return best
}

// Diameter returns the exact diameter (largest finite pairwise hop
// distance) by running BFS from every node: O(n·m). Use only on small
// graphs. The second result reports whether the graph is connected; for
// disconnected graphs the diameter is taken within components.
func (g *Graph) Diameter() (int, bool) {
	diam := 0
	connected := true
	dist := make([]int32, g.n)
	for s := 0; s < g.n; s++ {
		dist = g.BFS(s, dist)
		for _, d := range dist {
			if d < 0 {
				connected = false
			} else if int(d) > diam {
				diam = int(d)
			}
		}
	}
	return diam, connected
}

// DegreeHistogram returns counts[d] = number of nodes with degree d.
func (g *Graph) DegreeHistogram() []int {
	h := make([]int, g.MaxDegree()+1)
	for u := 0; u < g.n; u++ {
		h[g.Degree(u)]++
	}
	return h
}
