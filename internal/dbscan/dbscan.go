// Package dbscan implements the DBSCAN density-based clustering algorithm
// of Ester, Kriegel, Sander and Xu (KDD 1996), which Entropy/IP uses during
// segment mining (§4.3 of the paper) to find dense ranges of segment values
// and ranges of values that are uniformly distributed in the histogram.
//
// The package provides the textbook n-dimensional implementation (Cluster)
// and a 1-dimensional variant over weighted values (Cluster1DWeighted) that
// exploits sortedness; the two produce the same clusters for 1-D inputs.
package dbscan

import "math"

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Result holds the output of a clustering run.
type Result struct {
	// Labels[i] is the cluster index of input point i (0-based), or Noise.
	Labels []int
	// NumClusters is the number of clusters found.
	NumClusters int
}

// Cluster runs DBSCAN on n-dimensional points using Euclidean distance.
//
// eps is the neighborhood radius and minPts the minimum number of points
// (including the point itself) required to form a dense region. The
// implementation is the textbook O(n²) algorithm, which is appropriate for
// the segment-mining workloads in this repository (at most a few thousand
// distinct values per segment).
func Cluster(points [][]float64, eps float64, minPts int) Result {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)
	cluster := 0

	neighbors := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if euclid(points[i], points[j]) <= eps {
				out = append(out, j)
			}
		}
		return out
	}

	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb := neighbors(i)
		if len(nb) < minPts {
			continue // noise (may later be adopted as a border point)
		}
		// Start a new cluster and expand it.
		labels[i] = cluster
		queue := append([]int(nil), nb...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if !visited[j] {
				visited[j] = true
				jnb := neighbors(j)
				if len(jnb) >= minPts {
					queue = append(queue, jnb...)
				}
			}
			if labels[j] == Noise {
				labels[j] = cluster
			}
		}
		cluster++
	}
	return Result{Labels: labels, NumClusters: cluster}
}

func euclid(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
