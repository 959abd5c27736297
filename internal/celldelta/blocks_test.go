package celldelta

import (
	"slices"
	"testing"

	"meg/internal/rng"
)

func TestForBlockCellsBounded(t *testing.T) {
	k := 5
	// Interior cell: all nine distinct neighbors.
	var cells []int
	ForBlockCellsLayout(k, false, nil, 2*k+2, func(c int) { cells = append(cells, c) })
	if len(cells) != 9 {
		t.Fatalf("interior block has %d cells, want 9", len(cells))
	}
	want := []int{k + 1, k + 2, k + 3, 2*k + 1, 2*k + 2, 2*k + 3, 3*k + 1, 3*k + 2, 3*k + 3}
	slices.Sort(cells)
	if !slices.Equal(cells, want) {
		t.Fatalf("interior block = %v, want %v", cells, want)
	}
	// Corner cell 0 without wrap: only the 2×2 quadrant.
	cells = cells[:0]
	ForBlockCellsLayout(k, false, nil, 0, func(c int) { cells = append(cells, c) })
	slices.Sort(cells)
	if !slices.Equal(cells, []int{0, 1, k, k + 1}) {
		t.Fatalf("corner block = %v, want %v", cells, []int{0, 1, k, k + 1})
	}
}

func TestForBlockCellsTorus(t *testing.T) {
	k := 4
	var cells []int
	ForBlockCellsLayout(k, true, nil, 0, func(c int) { cells = append(cells, c) })
	if len(cells) != 9 {
		t.Fatalf("torus corner block has %d cells, want 9", len(cells))
	}
	seen := map[int]bool{}
	for _, c := range cells {
		if c < 0 || c >= k*k {
			t.Fatalf("torus block cell %d out of range", c)
		}
		if seen[c] {
			t.Fatalf("torus block repeats cell %d", c)
		}
		seen[c] = true
	}
	// Wrapping from cell 0 must reach the opposite edges.
	for _, c := range []int{k*k - 1, k - 1, k * (k - 1)} {
		if !seen[c] {
			t.Fatalf("torus block from cell 0 misses wrapped cell %d (got %v)", c, cells)
		}
	}
}

// buildCellList lays out nodes into cells with the counting-sort
// layout (ascending node ids within each cell).
func buildCellList(nodeCell []int32, cells int) (starts, order []int32) {
	starts = make([]int32, cells+1)
	for _, c := range nodeCell {
		starts[c+1]++
	}
	for c := 1; c <= cells; c++ {
		starts[c] += starts[c-1]
	}
	order = make([]int32, len(nodeCell))
	fill := slices.Clone(starts)
	for u, c := range nodeCell {
		order[fill[c]] = int32(u)
		fill[c]++
	}
	return starts, order
}

// bruteAfter is the oracle for Blocks.After: the ascending nodes of
// cell's 3×3 block strictly greater than u.
func bruteAfter(nodeCell []int32, cellsPer int, torus bool, cell int32, u int) []int32 {
	inBlock := map[int]bool{}
	ForBlockCellsLayout(cellsPer, torus, nil, int(cell), func(c int) { inBlock[c] = true })
	var out []int32
	for v, c := range nodeCell {
		if inBlock[int(c)] && v > u {
			out = append(out, int32(v))
		}
	}
	slices.Sort(out)
	return out
}

func TestBlocksAfterMatchesBruteForce(t *testing.T) {
	r := rng.New(21)
	for _, torus := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			k, n := 6, 300
			nodeCell := make([]int32, n)
			for u := range nodeCell {
				nodeCell[u] = int32(r.Intn(k * k))
			}
			starts, order := buildCellList(nodeCell, k*k)
			var b Blocks
			b.BuildLayout(k, torus, nil, starts, order, workers)
			for u := 0; u < n; u += 7 {
				cell := nodeCell[u]
				got := b.After(cell, u)
				want := bruteAfter(nodeCell, k, torus, cell, u)
				if !slices.Equal(got, want) {
					t.Fatalf("torus=%v workers=%d After(%d, %d) = %v, want %v",
						torus, workers, cell, u, got, want)
				}
			}
			// After(cell, -1) is the whole block, ascending.
			for c := int32(0); c < int32(k*k); c++ {
				all := b.After(c, -1)
				if !slices.IsSorted(all) {
					t.Fatalf("block %d candidates not ascending: %v", c, all)
				}
				if want := bruteAfter(nodeCell, k, torus, c, -1); !slices.Equal(all, want) {
					t.Fatalf("block %d = %v, want %v", c, all, want)
				}
			}
		}
	}
}

func TestBlocksRebuildReusesBuffers(t *testing.T) {
	// A second BuildLayout over a smaller, different layout must fully
	// replace the first index even though the buffers are recycled.
	k := 4
	var b Blocks
	nodeCell1 := []int32{0, 0, 5, 10, 15, 15, 15}
	s1, o1 := buildCellList(nodeCell1, k*k)
	b.BuildLayout(k, true, nil, s1, o1, 2)

	nodeCell2 := []int32{3, 3, 3}
	s2, o2 := buildCellList(nodeCell2, k*k)
	b.BuildLayout(k, true, nil, s2, o2, 1)
	for c := int32(0); c < int32(k*k); c++ {
		got := b.After(c, -1)
		want := bruteAfter(nodeCell2, k, true, c, -1)
		if !slices.Equal(got, want) {
			t.Fatalf("after rebuild, block %d = %v, want %v", c, got, want)
		}
	}
}

func TestBlocksEmptyCells(t *testing.T) {
	// An entirely empty grid yields empty blocks everywhere.
	k := 3
	starts, order := buildCellList(nil, k*k)
	var b Blocks
	b.BuildLayout(k, false, nil, starts, order, 3)
	for c := int32(0); c < int32(k*k); c++ {
		if got := b.After(c, -1); len(got) != 0 {
			t.Fatalf("empty grid block %d = %v, want empty", c, got)
		}
	}
}
