// Package graph provides the undirected-graph substrate used throughout the
// ACCU reproduction: a mutable builder for generators and a frozen,
// cache-friendly CSR (compressed sparse row) form for the attack loops.
//
// Nodes are dense integers in [0, N). Self-loops and parallel edges are
// rejected at build time, matching the simple-graph assumption of the
// paper's network model.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// ErrNodeRange is returned when a node id is outside [0, N).
var ErrNodeRange = errors.New("graph: node id out of range")

// Builder accumulates edges for an undirected simple graph. The zero value
// is not usable; construct with NewBuilder.
//
// Each node keeps its neighbours as one sorted row, so duplicate checks
// are binary searches, insertions shift only the row's tail (generators
// that add neighbours in ascending order just append) and Freeze copies
// rows without sorting.
type Builder struct {
	n   int
	adj [][]int32 // adj[u] is u's sorted neighbour row
	m   int
}

// NewBuilder returns a builder for a graph with n nodes and no edges.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	// Every row starts in one shared slab, so low-degree nodes never
	// allocate; a row that outgrows its share moves to its own array.
	adj := make([][]int32, n)
	slab := make([]int32, n*rowStart)
	for u := range adj {
		adj[u] = slab[u*rowStart : u*rowStart : (u+1)*rowStart]
	}
	return &Builder{n: n, adj: adj}
}

// rowStart is the capacity each row gets in NewBuilder's slab.
const rowStart = 8

// N reports the number of nodes.
func (b *Builder) N() int { return b.n }

// M reports the number of (undirected) edges added so far.
func (b *Builder) M() int { return b.m }

// AddEdge inserts the undirected edge (u, v). It reports whether the edge
// was newly added; self-loops and duplicates are ignored with ok=false.
// It returns ErrNodeRange if either endpoint is out of range.
func (b *Builder) AddEdge(u, v int) (ok bool, err error) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return false, fmt.Errorf("%w: (%d, %d) with n=%d", ErrNodeRange, u, v, b.n)
	}
	if u == v {
		return false, nil
	}
	i := searchRow(b.adj[u], int32(v))
	if i < len(b.adj[u]) && b.adj[u][i] == int32(v) {
		return false, nil
	}
	b.adj[u] = slices.Insert(b.adj[u], i, int32(v))
	b.adj[v] = slices.Insert(b.adj[v], searchRow(b.adj[v], int32(u)), int32(u))
	b.m++
	return true, nil
}

// HasEdge reports whether the edge (u, v) exists. Out-of-range endpoints
// report false.
func (b *Builder) HasEdge(u, v int) bool {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return false
	}
	row := b.adj[u]
	i := searchRow(row, int32(v))
	return i < len(row) && row[i] == int32(v)
}

// Degree reports the degree of u, or 0 if out of range.
func (b *Builder) Degree(u int) int {
	if u < 0 || u >= b.n {
		return 0
	}
	return len(b.adj[u])
}

// Freeze converts the builder into an immutable CSR graph. The builder
// remains usable afterwards.
func (b *Builder) Freeze() *Graph {
	offsets := make([]int64, b.n+1)
	for u := 0; u < b.n; u++ {
		offsets[u+1] = offsets[u] + int64(len(b.adj[u]))
	}
	neighbors := make([]int32, offsets[b.n])
	for u := 0; u < b.n; u++ {
		copy(neighbors[offsets[u]:], b.adj[u])
	}
	return &Graph{n: b.n, m: b.m, offsets: offsets, neighbors: neighbors}
}

// searchRow returns the index of the first entry of the ascending row
// that is >= x (len(row) if none). The common append case, x above the
// whole row, costs one comparison.
func searchRow(row []int32, x int32) int {
	lo, hi := 0, len(row)
	if hi == 0 || row[hi-1] < x {
		return hi
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Graph is an immutable undirected simple graph in CSR form. Adjacency
// rows are sorted ascending, enabling O(d_u + d_v) mutual-neighbor
// counting by merge. A Graph is safe for concurrent use.
type Graph struct {
	n         int
	m         int
	offsets   []int64
	neighbors []int32
}

// N reports the number of nodes.
func (g *Graph) N() int { return g.n }

// M reports the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree reports the degree of u, or 0 if out of range.
func (g *Graph) Degree(u int) int {
	if u < 0 || u >= g.n {
		return 0
	}
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the sorted adjacency row of u. The returned slice
// aliases internal storage and must not be modified. Out-of-range u
// returns nil.
func (g *Graph) Neighbors(u int) []int32 {
	if u < 0 || u >= g.n {
		return nil
	}
	return g.neighbors[g.offsets[u]:g.offsets[u+1]]
}

// HasEdge reports whether (u, v) exists, by binary search in the shorter
// row: O(log min(d_u, d_v)).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	row := g.Neighbors(u)
	i := searchRow(row, int32(v))
	return i < len(row) && row[i] == int32(v)
}

// MutualCount reports |N(u) ∩ N(v)| by merging the two sorted rows.
func (g *Graph) MutualCount(u, v int) int {
	a, b := g.Neighbors(u), g.Neighbors(v)
	count, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// AdjBase returns the starting index of u's adjacency row in the global
// CSR neighbor array. Together with Degree it lets callers maintain
// per-directed-edge parallel arrays (e.g. edge probabilities) of length
// AdjSize aligned with Neighbors: the attribute of edge (u, Neighbors(u)[i])
// lives at AdjBase(u)+i.
func (g *Graph) AdjBase(u int) int {
	if u < 0 || u >= g.n {
		return -1
	}
	return int(g.offsets[u])
}

// AdjSize returns the total number of directed adjacency slots (2M).
func (g *Graph) AdjSize() int { return len(g.neighbors) }

// IndexOf returns the global CSR index of neighbor v within u's row, or
// -1 when the edge does not exist.
func (g *Graph) IndexOf(u, v int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1
	}
	row := g.Neighbors(u)
	if i := searchRow(row, int32(v)); i < len(row) && row[i] == int32(v) {
		return int(g.offsets[u]) + i
	}
	return -1
}

// EachEdge calls fn(u, v) once per undirected edge with u < v. Iteration
// stops early if fn returns false.
func (g *Graph) EachEdge(fn func(u, v int) bool) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				if !fn(u, int(v)) {
					return
				}
			}
		}
	}
}

// EachEdgeSlot is EachEdge with CSR slots: fn(u, v, uv, vu) receives
// uv = IndexOf(u, v) and vu = IndexOf(v, u), so callers can fill
// per-slot arrays symmetrically without searching rows. It relies on the
// walk visiting v's lower neighbours u in ascending order, which is the
// order they occupy at the front of v's sorted row.
func (g *Graph) EachEdgeSlot(fn func(u, v, uv, vu int) bool) {
	lower := make([]int32, g.n) // lower[v]: v's lower neighbours seen so far
	for u := 0; u < g.n; u++ {
		start, end := int(g.offsets[u]), int(g.offsets[u+1])
		for uv := start + int(lower[u]); uv < end; uv++ {
			v := int(g.neighbors[uv])
			vu := int(g.offsets[v]) + int(lower[v])
			lower[v]++
			if !fn(u, v, uv, vu) {
				return
			}
		}
	}
}

// Edges returns all undirected edges with U < V. The slice is freshly
// allocated.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	g.EachEdge(func(u, v int) bool {
		out = append(out, Edge{U: u, V: v})
		return true
	})
	return out
}

// Edge is an undirected edge with U < V by convention.
type Edge struct {
	U, V int
}

// Canonical returns the edge with endpoints ordered U <= V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}
