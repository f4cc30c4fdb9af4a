package bayes

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// correlatedData draws from a 5-variable model with real dependencies so
// structure search has non-trivial work: B copies A with noise, D depends
// on (B, C), E is independent.
func correlatedData(n int, seed int64) ([][]int, []Variable) {
	rng := rand.New(rand.NewSource(seed))
	vars := []Variable{
		{Name: "A", Arity: 4},
		{Name: "B", Arity: 4},
		{Name: "C", Arity: 3},
		{Name: "D", Arity: 5},
		{Name: "E", Arity: 2},
	}
	data := make([][]int, n)
	for i := range data {
		a := rng.Intn(4)
		b := a
		if rng.Float64() < 0.15 {
			b = rng.Intn(4)
		}
		c := rng.Intn(3)
		d := (b + c) % 5
		if rng.Float64() < 0.1 {
			d = rng.Intn(5)
		}
		e := rng.Intn(2)
		data[i] = []int{a, b, c, d, e}
	}
	return data, vars
}

// TestLearnWorkersEquivalent asserts the central determinism guarantee:
// the learned network — structure AND every CPT probability, bit for bit —
// is independent of the worker count.
func TestLearnWorkersEquivalent(t *testing.T) {
	data, vars := correlatedData(5000, 1)
	want, err := Learn(data, vars, LearnConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		got, err := Learn(data, vars, LearnConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Parents, want.Parents) {
			t.Fatalf("workers=%d: learned structure differs: %v vs %v", workers, got.Parents, want.Parents)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: learned network differs from sequential result", workers)
		}
	}
}

// TestLearnWorkersEquivalentBIC repeats the check with the BIC score and a
// larger parent budget, exercising different tie-break paths.
func TestLearnWorkersEquivalentBIC(t *testing.T) {
	data, vars := correlatedData(2000, 2)
	cfgBase := LearnConfig{Score: ScoreBIC, MaxParents: 3}
	cfg1 := cfgBase
	cfg1.Workers = 1
	want, err := Learn(data, vars, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := cfgBase
	cfg8.Workers = 8
	got, err := Learn(data, vars, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BIC: learned network differs across worker counts")
	}
}

// TestLearnValidationErrorMatchesSequential checks that validation reports
// the first bad row for any worker count.
func TestLearnValidationErrorMatchesSequential(t *testing.T) {
	data, vars := correlatedData(3000, 3)
	data[1234][2] = 99 // first invalid row
	data[2500][0] = -1 // later invalid row must not win
	for _, workers := range []int{1, 4, 0} {
		_, err := Learn(data, vars, LearnConfig{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "row 1234") {
			t.Fatalf("workers=%d: err = %v, want first error at row 1234", workers, err)
		}
	}
}
