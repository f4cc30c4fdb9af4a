// Package dbscan implements the DBSCAN density-based clustering algorithm
// of Ester, Kriegel, Sander and Xu (KDD 1996), which Entropy/IP uses during
// segment mining (§4.3 of the paper) to find dense ranges of segment values
// and ranges of values that are uniformly distributed in the histogram.
//
// The package provides a grid-indexed 2-D implementation (Cluster2D, after
// Gan and Tao, "DBSCAN Revisited", SIGMOD 2015) and a 1-D variant over
// weighted values (Cluster1DWeighted) that exploits sortedness. Neither
// scans all pairs of points. The package tests keep the textbook quadratic
// algorithm as the oracle both are checked against.
package dbscan

import (
	"cmp"
	"math"
	"slices"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Result holds the output of a clustering run.
type Result struct {
	// Labels[i] is the cluster index of input point i (0-based), or Noise.
	Labels []int
	// NumClusters is the number of clusters found.
	NumClusters int
}

// Cluster2D runs DBSCAN on 2-D points using Euclidean distance.
//
// eps is the neighborhood radius and minPts the minimum number of points
// (including the point itself) required to form a dense region. Point j
// is a neighbor of point i when math.Sqrt(dx*dx+dy*dy) <= eps. Clusters
// are the connected components of the core points, numbered in order of
// their lowest-index core point; a border point joins the lowest-numbered
// cluster with a core point in reach. These are the labels of the textbook
// algorithm, and neighbor order does not affect them.
//
// Neighbors are looked up in a grid of square cells wider than eps, so
// only the 3×3 block of cells around a point is scanned. For finite
// coordinates the neighbor sets are exact unless eps is so small (below
// ~1e-150) that squared distances underflow.
func Cluster2D(points [][2]float64, eps float64, minPts int) Result {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 {
		return Result{Labels: labels}
	}
	g := newGrid(points, eps)

	// core and visited are indexed by sorted position, labels by input
	// index; the outer loop runs in input order, which numbers clusters.
	core := make([]bool, n)
	for s := range core {
		core[s] = g.countNeighbors(s, minPts) >= minPts
	}
	visited := make([]bool, n)
	var stack []int
	cluster := 0
	for i := range points {
		s := g.pos[i]
		if visited[s] {
			continue
		}
		visited[s] = true
		if !core[s] {
			continue // noise (may later be adopted as a border point)
		}
		labels[i] = cluster
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, r := range g.block(p) {
				for k := r.lo; k < r.hi; k++ {
					if !g.within(p, k) {
						continue
					}
					if j := g.idx[k]; labels[j] == Noise {
						labels[j] = cluster
					}
					if !visited[k] {
						visited[k] = true
						if core[k] {
							stack = append(stack, k)
						}
					}
				}
			}
		}
		cluster++
	}
	return Result{Labels: labels, NumClusters: cluster}
}

// gridMaxCells bounds (coordinate - minimum) / cell side. Below it the
// float rounding of a cell index stays far inside the margin the cell
// side keeps over eps.
const gridMaxCells = 1 << 16

// grid indexes points by square cell. The points are stored sorted by
// (cell column, cell row), so the rows cy-1..cy+1 of one column are one
// contiguous run and a 3×3 block is three pairs of binary searches.
type grid struct {
	eps  float64
	keys []uint64     // cell key per sorted position, ascending
	xy   [][2]float64 // coordinates per sorted position
	idx  []int        // input index per sorted position
	pos  []int        // sorted position per input index
}

// run is a half-open range of sorted positions.
type run struct{ lo, hi int }

func newGrid(points [][2]float64, eps float64) *grid {
	lo, hi := points[0], points[0]
	for _, p := range points {
		lo = [2]float64{min(lo[0], p[0]), min(lo[1], p[1])}
		hi = [2]float64{max(hi[0], p[0]), max(hi[1], p[1])}
	}
	// The side exceeds eps by a relative margin, so a pair within eps never
	// lands two cells apart through rounding of the cell index. A wide
	// input gets coarser cells, which keeps its indices small enough for
	// that margin to hold.
	side := eps * (1 + 1e-9)
	if m := max(hi[0]-lo[0], hi[1]-lo[1]) / gridMaxCells; !(side >= m) {
		side = m
	}
	if side == 0 {
		side = 1 // eps 0 and all points coincide: any side works
	}
	// Indices are offset by one so the cells around the first row and
	// column are still non-negative.
	cellKey := func(p [2]float64) uint64 {
		cx := uint64(math.Floor((p[0]-lo[0])/side)) + 1
		cy := uint64(math.Floor((p[1]-lo[1])/side)) + 1
		return cx<<32 | cy
	}
	n := len(points)
	g := &grid{
		eps:  eps,
		keys: make([]uint64, n),
		xy:   make([][2]float64, n),
		idx:  make([]int, n),
		pos:  make([]int, n),
	}
	for i := range g.idx {
		g.idx[i] = i
	}
	keyOf := make([]uint64, n)
	for i, p := range points {
		keyOf[i] = cellKey(p)
	}
	slices.SortFunc(g.idx, func(a, b int) int {
		if c := cmp.Compare(keyOf[a], keyOf[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for s, i := range g.idx {
		g.keys[s] = keyOf[i]
		g.xy[s] = points[i]
		g.pos[i] = s
	}
	return g
}

// block returns the sorted-position runs of the 3×3 cells around sorted
// position s.
func (g *grid) block(s int) [3]run {
	var out [3]run
	cx, cy := g.keys[s]>>32, g.keys[s]&(1<<32-1)
	for d := range out {
		col := (cx + uint64(d) - 1) << 32
		a, _ := slices.BinarySearch(g.keys, col|(cy-1))
		b, _ := slices.BinarySearch(g.keys[a:], col|(cy+2))
		out[d] = run{a, a + b}
	}
	return out
}

// within reports whether the points at sorted positions s and k are
// within eps of each other.
func (g *grid) within(s, k int) bool {
	a, b := g.xy[s], g.xy[k]
	dx, dy := a[0]-b[0], a[1]-b[1]
	return math.Sqrt(dx*dx+dy*dy) <= g.eps
}

// countNeighbors returns the number of points within eps of sorted
// position s, counting s itself, but stops once it reaches limit.
func (g *grid) countNeighbors(s, limit int) int {
	cnt := 0
	for _, r := range g.block(s) {
		for k := r.lo; k < r.hi; k++ {
			if g.within(s, k) {
				if cnt++; cnt >= limit {
					return cnt
				}
			}
		}
	}
	return cnt
}
