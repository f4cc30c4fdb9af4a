package dbscan

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Cluster is the textbook O(n²) DBSCAN over n-dimensional points with
// Euclidean distance. It is the oracle Cluster2D and Cluster1DWeighted
// are checked against: eps is the neighborhood radius and minPts the
// minimum number of points (including the point itself) required to form
// a dense region.
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

// cluster2DOracle runs Cluster2D and the Cluster oracle on the same points
// and returns an error describing the first difference.
func cluster2DOracle(points [][2]float64, eps float64, minPts int) (Result, error) {
	nd := make([][]float64, len(points))
	for i, p := range points {
		nd[i] = []float64{p[0], p[1]}
	}
	got, want := Cluster2D(points, eps, minPts), Cluster(nd, eps, minPts)
	if got.NumClusters != want.NumClusters || !slices.Equal(got.Labels, want.Labels) {
		return got, fmt.Errorf("Cluster2D(eps=%v, minPts=%d) = %d clusters %v, oracle %d clusters %v",
			eps, minPts, got.NumClusters, got.Labels, want.NumClusters, want.Labels)
	}
	return got, nil
}

func TestClusterTwoBlobs(t *testing.T) {
	// Two tight 2-D blobs and one far-away noise point.
	points := [][2]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1},
		{10, 10}, {10.1, 10}, {10, 10.1},
		{100, 100},
	}
	r, err := cluster2DOracle(points, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
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
	r = Cluster2D(nil, 1, 2)
	if r.NumClusters != 0 || len(r.Labels) != 0 {
		t.Error("Cluster2D: empty input should produce no clusters")
	}
	for _, minPts := range []int{1, 2} {
		if _, err := cluster2DOracle([][2]float64{{1, 1}}, 1, minPts); err != nil {
			t.Error(err)
		}
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
	var points [][2]float64
	// Uniform-ish range: values 0..99 with counts ~10.
	for v := 0; v < 100; v++ {
		points = append(points, [2]float64{float64(v), 10 + float64(rng.Intn(3))})
	}
	// A spike far away in count space.
	points = append(points, [2]float64{200, 1000})
	r, err := cluster2DOracle(points, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumClusters < 1 {
		t.Fatal("expected at least one cluster")
	}
	if r.Labels[len(points)-1] != Noise {
		t.Error("spike should be noise relative to the uniform range")
	}
}

// pointsFromFuzz decodes a fuzz input into 2-D points, at most 400 of
// them so the quadratic oracle stays fast. In scatter mode each 4 bytes
// are two int16 coordinates times scale; lattice inputs (small integers
// with scale == eps) put neighbors exactly eps apart. In histogram mode
// each 2 bytes are a value gap and a count, normalized like segment
// mining's step (c): x = 100·value/span rises monotonically and
// y = 100·count/maxCount.
func pointsFromFuzz(data []byte, scale float64, histogram bool) [][2]float64 {
	const maxPoints = 400
	var points [][2]float64
	if !histogram {
		for len(data) >= 4 && len(points) < maxPoints {
			x := int16(binary.LittleEndian.Uint16(data))
			y := int16(binary.LittleEndian.Uint16(data[2:]))
			points = append(points, [2]float64{float64(x) * scale, float64(y) * scale})
			data = data[4:]
		}
		return points
	}
	var values []uint64
	var counts []int
	v, maxCount := uint64(0), 0
	for len(data) >= 2 && len(values) < maxPoints {
		v += uint64(data[0]) + 1
		values = append(values, v)
		counts = append(counts, int(data[1])+1)
		maxCount = max(maxCount, int(data[1])+1)
		data = data[2:]
	}
	span := float64(v) * math.Max(1, scale)
	for i, v := range values {
		points = append(points, [2]float64{
			100 * float64(v) / span,
			100 * float64(counts[i]) / float64(maxCount),
		})
	}
	return points
}

// checkCluster2D requires Cluster2D to equal the oracle on one decoded
// fuzz input.
func checkCluster2D(t *testing.T, data []byte, scale, eps float64, minPts uint8, histogram bool) {
	t.Helper()
	if math.IsNaN(scale) || math.Abs(scale) < 1e-3 || math.Abs(scale) > 1e3 {
		scale = 1
	}
	// Below ~1e-150 squared distances underflow, outside Cluster2D's
	// exactness contract.
	if math.IsNaN(eps) || math.IsInf(eps, 0) || math.Abs(eps) < 1e-100 || math.Abs(eps) > 1e6 {
		eps = 5
	}
	points := pointsFromFuzz(data, scale, histogram)
	if _, err := cluster2DOracle(points, eps, int(minPts%6)+1); err != nil {
		t.Fatalf("%d points: %v", len(points), err)
	}
}

// lattice encodes a w×h lattice of integer coordinates (spacing 1) in the
// scatter fuzz encoding, starting at (x0, y0).
func lattice(x0, y0, w, h int) []byte {
	var out []byte
	for i := 0; i < w; i++ {
		for j := 0; j < h; j++ {
			out = binary.LittleEndian.AppendUint16(out, uint16(int16(x0+i)))
			out = binary.LittleEndian.AppendUint16(out, uint16(int16(y0+j)))
		}
	}
	return out
}

func FuzzCluster2D(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	coincident := append(lattice(3, 3, 1, 1), lattice(3, 3, 1, 1)...)
	coincident = append(coincident, coincident...)
	for minPts := uint8(0); minPts < 6; minPts++ { // minPts%6+1 covers 1..6
		f.Add(random(400), 1.0, 500.0, minPts, false)
		f.Add(random(1200), 0.01, 5.0, minPts, false)
		f.Add(lattice(0, 0, 6, 6), 5.0, 5.0, minPts, false)
		f.Add(lattice(-3, 7, 9, 2), 0.1, 0.1, minPts, false)
		f.Add(lattice(0, 0, 12, 1), 0.3, 0.3, minPts, false)
		f.Add(coincident, 1.0, 0.5, minPts, false)
		f.Add(coincident, 1.0, 0.0, minPts, false)
		f.Add(random(600), 1.0, 5.0, minPts, true)
		f.Add(random(800), 3.0, 5.0, minPts, true)
		f.Add(append(random(40), make([]byte, 200)...), 1.0, 5.0, minPts, true)
	}
	f.Fuzz(checkCluster2D)
}

// TestCluster2DMatchesOracle runs many seeded inputs of each fuzz shape,
// beyond the fuzz corpus that plain test runs replay, plus inputs too wide
// for eps-sized cells.
func TestCluster2DMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for it := 0; it < 600; it++ {
		data := make([]byte, 4*(1+rng.Intn(150)))
		rng.Read(data)
		minPts := uint8(it % 6)
		switch it % 4 {
		case 0: // scattered points, eps from tiny to covering everything
			checkCluster2D(t, data, 1, math.Pow(10, 1+4*rng.Float64()), minPts, false)
		case 1: // lattice spaced exactly eps apart, non-binary fractions
			step := []float64{0.1, 0.3, 0.7, 1, 5}[rng.Intn(5)]
			w, h := 1+rng.Intn(12), 1+rng.Intn(12)
			checkCluster2D(t, lattice(rng.Intn(20)-10, rng.Intn(20)-10, w, h), step, step, minPts, false)
		case 2: // step (c) histogram points
			checkCluster2D(t, data, 1+3*rng.Float64(), 5, minPts, true)
		default: // tight groups spread 10^11 eps wide: coarse cells
			const eps = 0.01
			var points [][2]float64
			for g := 0; g < 1+rng.Intn(60); g++ {
				x, y := (rng.Float64()-0.5)*2e9, (rng.Float64()-0.5)*2e9
				for k := 0; k < 1+rng.Intn(6); k++ {
					points = append(points, [2]float64{x + (rng.Float64()-0.5)*eps, y + (rng.Float64()-0.5)*eps})
				}
			}
			if _, err := cluster2DOracle(points, eps, int(minPts)+1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func BenchmarkCluster2D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{500, 4096} {
		points := make([][2]float64, n)
		nd := make([][]float64, n)
		for i := range points {
			points[i] = [2]float64{rng.Float64() * 100, rng.Float64() * 100}
			nd[i] = points[i][:]
		}
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Cluster2D(points, 5, 4)
			}
		})
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Cluster(nd, 5, 4)
			}
		})
	}
}
