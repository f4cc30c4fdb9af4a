package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-3); got < 1 {
		t.Fatalf("Workers(-3) = %d, want >= 1", got)
	}
}

func TestShards(t *testing.T) {
	cases := []struct {
		n, workers int
		want       int // number of shards
	}{
		{0, 4, 0},
		{-1, 4, 0},
		{1, 4, 1},
		{4, 4, 4},
		{10, 3, 3},
		{10, 100, 10},
	}
	for _, c := range cases {
		shards := Shards(c.n, c.workers)
		if len(shards) != c.want {
			t.Fatalf("Shards(%d, %d): %d shards, want %d", c.n, c.workers, len(shards), c.want)
		}
		// Shards must tile [0, n) exactly, in order, with sizes differing
		// by at most one.
		pos, min, max := 0, c.n+1, 0
		for _, s := range shards {
			if s.Start != pos || s.End <= s.Start {
				t.Fatalf("Shards(%d, %d): bad shard %+v at pos %d", c.n, c.workers, s, pos)
			}
			if s.Len() < min {
				min = s.Len()
			}
			if s.Len() > max {
				max = s.Len()
			}
			pos = s.End
		}
		if c.n > 0 && pos != c.n {
			t.Fatalf("Shards(%d, %d): covers [0,%d)", c.n, c.workers, pos)
		}
		if len(shards) > 0 && max-min > 1 {
			t.Fatalf("Shards(%d, %d): shard sizes differ by %d", c.n, c.workers, max-min)
		}
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 1000
		var hits = make([]atomic.Int32, n)
		ForEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestMapDeterministic(t *testing.T) {
	n := 513
	want := Map(1, n, func(i int) int { return i * i })
	for _, workers := range []int{2, 3, 16} {
		got := Map(workers, n, func(i int) int { return i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachShardCoversAll(t *testing.T) {
	for _, workers := range []int{1, 3, 9} {
		n := 1001
		covered := make([]atomic.Int32, n)
		ForEachShard(workers, n, func(s Shard) {
			for i := s.Start; i < s.End; i++ {
				covered[i].Add(1)
			}
		})
		for i := range covered {
			if covered[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, covered[i].Load())
			}
		}
	}
}

func TestMapShardsShardOrder(t *testing.T) {
	// MapShards must return each shard's result at the shard's index, so a
	// left-to-right fold of the results is the same for any worker count.
	n := 10_000
	for _, workers := range []int{1, 2, 5, 32} {
		shards := Shards(n, workers)
		got := MapShards(workers, n, func(s Shard) Shard { return s })
		if len(got) != len(shards) {
			t.Fatalf("workers=%d: %d results for %d shards", workers, len(got), len(shards))
		}
		for i := range shards {
			if got[i] != shards[i] {
				t.Fatalf("workers=%d: result %d is %+v, want %+v", workers, i, got[i], shards[i])
			}
		}
	}
	if got := MapShards(4, 0, func(s Shard) int { return s.Len() }); len(got) != 0 {
		t.Fatalf("empty MapShards = %v", got)
	}
}

// recoverPanic runs f and returns the value it panicked with, or nil.
func recoverPanic(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestWorkerPanicReachesCaller checks that a panic in a worker is raised
// again on the calling goroutine with its original value, for the
// per-index and the sharded primitives, and that no worker outlives the
// call.
func TestWorkerPanicReachesCaller(t *testing.T) {
	const n, bad = 1000, 437
	type boom struct{ i int }
	runs := map[string]func(workers int){
		"ForEach": func(workers int) {
			ForEach(workers, n, func(i int) {
				if i == bad {
					panic(boom{i})
				}
			})
		},
		"MapShards": func(workers int) {
			MapShards(workers, n, func(s Shard) int {
				if s.Start <= bad && bad < s.End {
					panic(boom{bad})
				}
				return s.Len()
			})
		},
	}
	for name, run := range runs {
		for _, workers := range []int{1, 2, 8} {
			before := runtime.NumGoroutine()
			got := recoverPanic(func() { run(workers) })
			if got != (boom{bad}) {
				t.Errorf("%s workers=%d: recovered %v, want %v", name, workers, got, boom{bad})
			}
			// Workers have returned once the call panics; allow the
			// runtime a moment to retire their goroutines.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%s workers=%d: %d goroutines after the panic, %d before", name, workers, after, before)
			}
			if running := Snapshot().Running; running != 0 {
				t.Errorf("%s workers=%d: Snapshot().Running = %d after the panic", name, workers, running)
			}
		}
	}
}
