package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFreqBasics(t *testing.T) {
	f := NewFreq()
	if f.Total() != 0 || f.Distinct() != 0 {
		t.Error("empty table should have zero totals")
	}
	f.Add(5)
	f.Add(5)
	f.Add(7)
	f.AddN(9, 3)
	f.AddN(9, 0)  // no-op
	f.AddN(9, -1) // no-op
	if f.Total() != 6 {
		t.Errorf("Total = %d", f.Total())
	}
	if f.Count(5) != 2 || f.Count(7) != 1 || f.Count(9) != 3 || f.Count(1) != 0 {
		t.Error("Count wrong")
	}
	if f.Distinct() != 3 {
		t.Errorf("Distinct = %d", f.Distinct())
	}
	if !almostEqual(f.P(5), 2.0/6.0) || !almostEqual(f.P(42), 0) {
		t.Error("P wrong")
	}
	vals := f.Values()
	if len(vals) != 3 || vals[0] != 5 || vals[2] != 9 {
		t.Errorf("Values = %v", vals)
	}
}

func TestFreqRemoveAndRanges(t *testing.T) {
	f := FreqOf([]uint64{1, 2, 2, 3, 3, 3, 10})
	if f.Remove(2) != 2 {
		t.Error("Remove(2) should return 2")
	}
	if f.Remove(2) != 0 {
		t.Error("second Remove(2) should return 0")
	}
	if f.Total() != 5 {
		t.Errorf("Total after remove = %d", f.Total())
	}
	if got := f.CountRange(1, 3); got != 4 {
		t.Errorf("CountRange(1,3) = %d", got)
	}
	if got := f.RemoveRange(3, 10); got != 4 {
		t.Errorf("RemoveRange(3,10) = %d", got)
	}
	if f.Total() != 1 || f.Distinct() != 1 {
		t.Errorf("after RemoveRange: total=%d distinct=%d", f.Total(), f.Distinct())
	}
}

func TestFreqMinMaxEntriesTopK(t *testing.T) {
	f := FreqOf([]uint64{8, 8, 8, 1, 1, 4})
	mn, ok := f.Min()
	if !ok || mn != 1 {
		t.Errorf("Min = %d, %v", mn, ok)
	}
	mx, ok := f.Max()
	if !ok || mx != 8 {
		t.Errorf("Max = %d, %v", mx, ok)
	}
	entries := f.Entries()
	if len(entries) != 3 || entries[0].Value != 1 || entries[0].Count != 2 {
		t.Errorf("Entries = %v", entries)
	}
	top := f.TopK(2)
	if len(top) != 2 || top[0].Value != 8 || top[1].Value != 1 {
		t.Errorf("TopK = %v", top)
	}
	if len(f.TopK(100)) != 3 || len(f.TopK(-1)) != 0 {
		t.Error("TopK bounds wrong")
	}
	empty := NewFreq()
	if _, ok := empty.Min(); ok {
		t.Error("Min of empty should be not ok")
	}
	if _, ok := empty.Max(); ok {
		t.Error("Max of empty should be not ok")
	}
}

func TestFreqClone(t *testing.T) {
	f := FreqOf([]uint64{1, 2, 3})
	c := f.Clone()
	c.Add(4)
	if f.Total() != 3 || c.Total() != 4 {
		t.Error("Clone is not independent")
	}
}

func TestFreqTotalInvariantProperty(t *testing.T) {
	// Property: total always equals the sum of counts.
	f := func(values []uint64) bool {
		tab := FreqOf(values)
		sum := 0
		for _, e := range tab.Entries() {
			sum += e.Count
		}
		return sum == tab.Total() && tab.Total() == len(values)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFreqEdgeCases pins the boundary behavior of the sorted table:
// inverted ranges, empty tables, insertion between existing values and
// removal of absent values.
func TestFreqEdgeCases(t *testing.T) {
	f := FreqOf([]uint64{10, 20, 20, 30})
	before := f.Entries()
	if got := f.CountRange(30, 10); got != 0 {
		t.Errorf("CountRange(30, 10) = %d, want 0", got)
	}
	if got := f.RemoveRange(30, 10); got != 0 {
		t.Errorf("RemoveRange(30, 10) = %d, want 0", got)
	}
	if got := f.Remove(25); got != 0 {
		t.Errorf("Remove(25) = %d, want 0", got)
	}
	if !slices.Equal(f.Entries(), before) || f.Total() != 4 {
		t.Fatalf("no-op calls changed the table: %v total %d", f.Entries(), f.Total())
	}

	f.AddN(25, 2)
	f.AddN(5, 1)
	f.AddN(35, 1)
	want := []Entry{{5, 1}, {10, 1}, {20, 2}, {25, 2}, {30, 1}, {35, 1}}
	if got := f.Entries(); !slices.Equal(got, want) {
		t.Errorf("after AddN: Entries = %v, want %v", got, want)
	}
	if f.Total() != 8 || f.Count(25) != 2 {
		t.Errorf("after AddN: total %d, Count(25) %d", f.Total(), f.Count(25))
	}

	for name, empty := range map[string]*Freq{
		"NewFreq":     NewFreq(),
		"FreqOf(nil)": FreqOf(nil),
		"emptied":     func() *Freq { g := FreqOf([]uint64{7, 7}); g.Remove(7); return g }(),
		"range-clear": func() *Freq { g := FreqOf([]uint64{1, 9}); g.RemoveRange(0, math.MaxUint64); return g }(),
	} {
		if _, ok := empty.Min(); ok {
			t.Errorf("%s: Min of empty should be not ok", name)
		}
		if _, ok := empty.Max(); ok {
			t.Errorf("%s: Max of empty should be not ok", name)
		}
		if empty.Total() != 0 || empty.Distinct() != 0 || len(empty.Entries()) != 0 || empty.P(7) != 0 {
			t.Errorf("%s: not empty: total %d distinct %d", name, empty.Total(), empty.Distinct())
		}
	}
}

// mapFreq is the map-backed frequency table the sorted Freq replaced,
// kept as the reference for TestFreqMatchesMapReference.
type mapFreq map[uint64]int

func (m mapFreq) entries() []Entry {
	out := make([]Entry, 0, len(m))
	for v, c := range m {
		out = append(out, Entry{Value: v, Count: c})
	}
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Value, b.Value) })
	return out
}

func (m mapFreq) rangeCount(lo, hi uint64, remove bool) int {
	n := 0
	for v, c := range m {
		if v >= lo && v <= hi {
			n += c
			if remove {
				delete(m, v)
			}
		}
	}
	return n
}

// TestFreqMatchesMapReference applies random operation sequences to Freq
// and to the map reference and compares every accessor after each step.
func TestFreqMatchesMapReference(t *testing.T) {
	rng := RNG(5)
	for trial := 0; trial < 300; trial++ {
		// A small value universe makes hits, misses and shared ranges
		// common; trial-dependent spread reaches the uint64 extremes.
		universe := uint64(1 + rng.Intn(40))
		value := func() uint64 {
			v := uint64(rng.Intn(int(universe)))
			if trial%4 == 3 {
				v = math.MaxUint64 - v
			}
			return v
		}
		init := make([]uint64, rng.Intn(30))
		ref := mapFreq{}
		for i := range init {
			init[i] = value()
			ref[init[i]]++
		}
		f := FreqOf(init)
		for step := 0; step < 40; step++ {
			var op string
			var got, want int
			switch a, b := value(), value(); rng.Intn(5) {
			case 0:
				op = fmt.Sprintf("AddN(%d, %d)", a, b%4)
				f.AddN(a, int(b%4))
				if b%4 > 0 {
					ref[a] += int(b % 4)
				}
			case 1:
				op = fmt.Sprintf("Remove(%d)", a)
				got, want = f.Remove(a), ref[a]
				delete(ref, a)
			case 2:
				op = fmt.Sprintf("RemoveRange(%d, %d)", a, b)
				got, want = f.RemoveRange(a, b), ref.rangeCount(a, b, true)
			case 3:
				op = fmt.Sprintf("CountRange(%d, %d)", a, b)
				got, want = f.CountRange(a, b), ref.rangeCount(a, b, false)
			default:
				op = fmt.Sprintf("Count(%d)", a)
				got, want = f.Count(a), ref[a]
			}
			if got != want {
				t.Fatalf("trial %d step %d: %s = %d, want %d", trial, step, op, got, want)
			}
			wantEntries := ref.entries()
			if !slices.Equal(f.Entries(), wantEntries) || f.Total() != ref.rangeCount(0, math.MaxUint64, false) ||
				f.Distinct() != len(ref) {
				t.Fatalf("trial %d step %d: after %s Entries = %v (total %d), want %v",
					trial, step, op, f.Entries(), f.Total(), wantEntries)
			}
			mn, okMin := f.Min()
			mx, okMax := f.Max()
			if okMin != (len(ref) > 0) || okMax != okMin ||
				(okMin && (mn != wantEntries[0].Value || mx != wantEntries[len(wantEntries)-1].Value)) {
				t.Fatalf("trial %d step %d: after %s Min/Max = %d,%v / %d,%v", trial, step, op, mn, okMin, mx, okMax)
			}
		}
	}
}

func TestQuartiles(t *testing.T) {
	q1, q2, q3 := Quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if !almostEqual(q1, 3) || !almostEqual(q2, 5) || !almostEqual(q3, 7) {
		t.Errorf("Quartiles = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = Quartiles([]float64{5})
	if q1 != 5 || q2 != 5 || q3 != 5 {
		t.Error("single-element quartiles should all equal the element")
	}
	// numpy convention check: [1,2,3,4] -> 1.75, 2.5, 3.25
	q1, q2, q3 = Quartiles([]float64{1, 2, 3, 4})
	if !almostEqual(q1, 1.75) || !almostEqual(q2, 2.5) || !almostEqual(q3, 3.25) {
		t.Errorf("Quartiles([1..4]) = %v %v %v", q1, q2, q3)
	}
}

func TestQuartilesPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Quartiles(nil)
}

func TestQuantile(t *testing.T) {
	data := []float64{10, 20, 30, 40, 50}
	if !almostEqual(Quantile(data, 0), 10) || !almostEqual(Quantile(data, 1), 50) {
		t.Error("extreme quantiles wrong")
	}
	if !almostEqual(Quantile(data, 0.5), 30) {
		t.Error("median wrong")
	}
	// Input must not be modified (sorted copy).
	shuffled := []float64{50, 10, 30, 20, 40}
	_ = Quantile(shuffled, 0.5)
	if shuffled[0] != 50 {
		t.Error("Quantile modified its input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for q=%v", q)
				}
			}()
			Quantile([]float64{1}, q)
		}()
	}
}

func TestIQRAndTukey(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !almostEqual(IQR(data), 4) {
		t.Errorf("IQR = %v", IQR(data))
	}
	if !almostEqual(TukeyUpperFence(data, 1.5), 7+1.5*4) {
		t.Errorf("TukeyUpperFence = %v", TukeyUpperFence(data, 1.5))
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Error("degenerate cases should be 0")
	}
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEqual(Mean(data), 5) {
		t.Errorf("Mean = %v", Mean(data))
	}
	if !almostEqual(Variance(data), 4) {
		t.Errorf("Variance = %v", Variance(data))
	}
	if !almostEqual(StdDev(data), 2) {
		t.Errorf("StdDev = %v", StdDev(data))
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		data := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return true
		}
		qa := float64(a%101) / 100
		qb := float64(b%101) / 100
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(data, qa) <= Quantile(data, qb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
