package celldelta

import (
	"slices"
	"sort"

	"meg/internal/par"
)

// ForBlockCellsLayout invokes fn for each distinct cell of c's 3×3
// block on a cellsPer×cellsPer grid, wrapping toroidally when torus is
// set. Callers guarantee cellsPer ≥ 3 (smaller grids use brute force),
// so the nine cells are distinct. With mo nil, cell indices are
// row-major (cy·k+cx); with a Morton layout, c and the indices handed
// to fn are dense Z-order ranks. The nine cells visited are the same
// geometric block either way — only their numbering changes.
func ForBlockCellsLayout(cellsPer int, torus bool, mo *Morton, c int, fn func(cell int)) {
	k := cellsPer
	var cx, cy int
	if mo != nil {
		cx, cy = int(mo.cellX[c]), int(mo.cellY[c])
	} else {
		cx, cy = c%k, c/k
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			x, y := cx+dx, cy+dy
			if torus {
				x, y = (x+k)%k, (y+k)%k
			} else if x < 0 || x >= k || y < 0 || y >= k {
				continue
			}
			if mo != nil {
				fn(int(mo.index[y*k+x]))
			} else {
				fn(y*k + x)
			}
		}
	}
}

// Blocks is the merged 3×3 candidate index over a cell list: for every
// cell, the ascending node list of its whole block. Built once per
// snapshot, it lets an edge sweep binary-search straight to a node's
// v > u suffix instead of filtering (and sorting) the block per node —
// the sweep touches half the candidates and emits rows already in the
// canonical ascending order graph.Mutable merges against. The zero
// value is ready; buffers persist across rebuilds.
type Blocks struct {
	offs []int32
	nbhd []int32
}

// BuildLayout recomputes the index from a cell list (starts/order in
// the counting-sort layout both models produce: within a cell, node ids
// ascend) under an explicit cell layout (nil = row-major; see
// ForBlockCellsLayout). Each cell's merged segment is sorted by node id
// regardless of layout, so downstream sweeps see identical candidate
// lists — the layout only changes which segments are memory neighbors.
// Per-cell segments are disjoint, so the parallel rebuild is
// byte-identical for every worker count.
func (b *Blocks) BuildLayout(cellsPer int, torus bool, mo *Morton, starts, order []int32, workers int) {
	cells := cellsPer * cellsPer
	if len(b.offs) < cells+1 {
		b.offs = make([]int32, cells+1)
	}
	offs := b.offs
	offs[0] = 0
	for c := 0; c < cells; c++ {
		size := int32(0)
		ForBlockCellsLayout(cellsPer, torus, mo, c, func(bc int) { size += starts[bc+1] - starts[bc] })
		offs[c+1] = offs[c] + size
	}
	total := int(offs[cells])
	if cap(b.nbhd) < total {
		b.nbhd = make([]int32, total)
	}
	nbhd := b.nbhd[:total]
	b.nbhd = nbhd
	par.ForBlocks(workers, cells, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			seg := nbhd[offs[c]:offs[c+1]]
			i := 0
			ForBlockCellsLayout(cellsPer, torus, mo, c, func(bc int) {
				i += copy(seg[i:], order[starts[bc]:starts[bc+1]])
			})
			slices.Sort(seg)
		}
	})
}

// After returns the ascending candidates v > u of the given cell's
// block. The slice aliases the index and is valid until the next
// BuildLayout.
func (b *Blocks) After(cell int32, u int) []int32 {
	list := b.nbhd[b.offs[cell]:b.offs[cell+1]]
	i := sort.Search(len(list), func(i int) bool { return list[i] > int32(u) })
	return list[i:]
}
