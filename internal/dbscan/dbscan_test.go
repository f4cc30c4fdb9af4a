package dbscan

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClusterTwoBlobs(t *testing.T) {
	// Two tight 2-D blobs and one far-away noise point.
	points := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1},
		{10, 10}, {10.1, 10}, {10, 10.1},
		{100, 100},
	}
	r := Cluster(points, 0.5, 3)
	if r.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", r.NumClusters)
	}
	if r.Labels[0] != r.Labels[1] || r.Labels[0] != r.Labels[3] {
		t.Error("first blob should share a label")
	}
	if r.Labels[4] != r.Labels[6] {
		t.Error("second blob should share a label")
	}
	if r.Labels[0] == r.Labels[4] {
		t.Error("blobs should have distinct labels")
	}
	if r.Labels[7] != Noise {
		t.Error("far point should be noise")
	}
}

func TestClusterEmptyAndSingle(t *testing.T) {
	r := Cluster(nil, 1, 2)
	if r.NumClusters != 0 || len(r.Labels) != 0 {
		t.Error("empty input should produce no clusters")
	}
	r = Cluster([][]float64{{1}}, 1, 2)
	if r.NumClusters != 0 || r.Labels[0] != Noise {
		t.Error("single point with minPts=2 should be noise")
	}
	r = Cluster([][]float64{{1}}, 1, 1)
	if r.NumClusters != 1 || r.Labels[0] != 0 {
		t.Error("single point with minPts=1 should be a cluster")
	}
}

func TestClusterChaining(t *testing.T) {
	// Points spaced exactly eps apart chain into one cluster.
	var points [][]float64
	for i := 0; i < 10; i++ {
		points = append(points, []float64{float64(i)})
	}
	r := Cluster(points, 1.0, 2)
	if r.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1 (chained)", r.NumClusters)
	}
	for i, l := range r.Labels {
		if l != 0 {
			t.Errorf("point %d label = %d", i, l)
		}
	}
}

// unitWeights returns the values as weighted points of weight 1.
func unitWeights(values []float64) []WeightedPoint {
	points := make([]WeightedPoint, len(values))
	for i, v := range values {
		points[i] = WeightedPoint{Value: v, Weight: 1}
	}
	return points
}

func TestCluster1DMatchesND(t *testing.T) {
	// Property: the 1-D specialization with unit weights produces the same
	// partition as the generic implementation (same number of clusters,
	// same grouping).
	f := func(raw []uint16, epsRaw uint8, minPtsRaw uint8) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		values := make([]float64, len(raw))
		points := make([][]float64, len(raw))
		for i, v := range raw {
			values[i] = float64(v % 1000)
			points[i] = []float64{values[i]}
		}
		eps := float64(epsRaw%50) + 0.5
		minPts := int(minPtsRaw%5) + 1
		a := Cluster(points, eps, minPts)
		b := Cluster1DWeighted(unitWeights(values), eps, minPts)
		if a.NumClusters != b.NumClusters {
			return false
		}
		// Core-point status is deterministic; compute it independently.
		core := make([]bool, len(values))
		for i := range values {
			cnt := 0
			for j := range values {
				if values[i]-values[j] <= eps && values[j]-values[i] <= eps {
					cnt++
				}
			}
			core[i] = cnt >= minPts
		}
		// Noise status must match exactly (a point is noise iff it is
		// neither core nor within eps of a core point); cluster membership
		// must agree for core points. Border points may legitimately be
		// attached to either adjacent cluster (a documented DBSCAN
		// ambiguity), so they are not compared pairwise.
		for i := range values {
			if (a.Labels[i] == Noise) != (b.Labels[i] == Noise) {
				return false
			}
		}
		for i := range values {
			if !core[i] {
				continue
			}
			for j := i + 1; j < len(values); j++ {
				if !core[j] {
					continue
				}
				sameA := a.Labels[i] == a.Labels[j]
				sameB := b.Labels[i] == b.Labels[j]
				if sameA != sameB {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCluster1DDenseRangeAndOutliers(t *testing.T) {
	// A dense run 100..150 plus isolated values far apart.
	var values []float64
	for v := 100; v <= 150; v++ {
		values = append(values, float64(v))
	}
	values = append(values, 500, 900)
	points := unitWeights(values)
	r := Cluster1DWeighted(points, 2, 4)
	if r.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", r.NumClusters)
	}
	ivs := WeightedIntervals(points, r)
	if len(ivs) != 1 || ivs[0].Lo != 100 || ivs[0].Hi != 150 || ivs[0].Weight != 51 || ivs[0].Points != 51 {
		t.Errorf("WeightedIntervals = %+v", ivs)
	}
	if r.Labels[len(values)-1] != Noise || r.Labels[len(values)-2] != Noise {
		t.Error("isolated values should be noise")
	}
}

func TestCluster1DEmpty(t *testing.T) {
	r := Cluster1DWeighted(unitWeights(nil), 1, 2)
	if r.NumClusters != 0 || len(r.Labels) != 0 {
		t.Error("empty input should produce no clusters")
	}
	if WeightedIntervals(nil, r) != nil {
		t.Error("WeightedIntervals of empty result should be nil")
	}
}

func TestCluster1DBorderPoints(t *testing.T) {
	// 0,1,2 are dense (minPts 3, eps 1); 2.8 is within eps of the core
	// point 2 but has only two points within eps, so it is a border point
	// of the cluster; 10 is noise.
	values := []float64{0, 1, 2, 2.8, 10}
	r := Cluster1DWeighted(unitWeights(values), 1, 3)
	if r.NumClusters != 1 {
		t.Fatalf("NumClusters = %d", r.NumClusters)
	}
	if r.Labels[3] != 0 {
		t.Errorf("border point label = %d, want 0", r.Labels[3])
	}
	if r.Labels[4] != Noise {
		t.Error("far point should be noise")
	}
}

func TestIntervalsMultipleClusters(t *testing.T) {
	values := []float64{1, 2, 3, 100, 101, 102, 103}
	points := unitWeights(values)
	r := Cluster1DWeighted(points, 1.5, 3)
	ivs := WeightedIntervals(points, r)
	if len(ivs) != 2 {
		t.Fatalf("WeightedIntervals = %+v", ivs)
	}
	if ivs[0].Lo != 1 || ivs[0].Hi != 3 || ivs[1].Lo != 100 || ivs[1].Hi != 103 {
		t.Errorf("WeightedIntervals = %+v", ivs)
	}
}

func TestClusterUniformHistogramUseCase(t *testing.T) {
	// The mining step's use of DBSCAN on a histogram: (value, count) pairs
	// where a contiguous range of values has similar counts clusters
	// together when counts are normalized.
	rng := rand.New(rand.NewSource(1))
	var points [][]float64
	// Uniform-ish range: values 0..99 with counts ~10.
	for v := 0; v < 100; v++ {
		points = append(points, []float64{float64(v), 10 + float64(rng.Intn(3))})
	}
	// A spike far away in count space.
	points = append(points, []float64{200, 1000})
	r := Cluster(points, 5, 4)
	if r.NumClusters < 1 {
		t.Fatal("expected at least one cluster")
	}
	if r.Labels[len(points)-1] != Noise {
		t.Error("spike should be noise relative to the uniform range")
	}
}

func BenchmarkClusterND(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	points := make([][]float64, 500)
	for i := range points {
		points[i] = []float64{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cluster(points, 5, 4)
	}
}
