package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"entropyip/internal/ip6"
)

// genEvidence picks a valid evidence assignment on the model's last
// segment (the IID segment of the test network, which has multiple
// codes).
func genEvidence(t *testing.T, m *Model) Evidence {
	t.Helper()
	sm := m.Segments[len(m.Segments)-1]
	return Evidence{sm.Seg.Label: sm.Values[0].Code}
}

// TestGenerateDeterministicAcrossWorkers is the acceptance gate for the
// parallel generation engine: in the (default) ordered mode the emitted
// candidate sequence must be byte-identical for every worker count —
// parallelism is purely operational, exactly as it is for training. Run
// under -race in CI, this also exercises the producer/merger protocol.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	m, addrs := buildTestModel(t, 4000, 23, Options{})
	exclude := ip6.NewSet(500)
	exclude.AddAll(addrs[:500])
	cases := []struct {
		name string
		opts GenerateOptions
	}{
		{"plain", GenerateOptions{Count: 1500, Seed: 42}},
		{"exclude", GenerateOptions{Count: 1200, Seed: 7, Exclude: exclude}},
		{"evidence", GenerateOptions{Count: 1100, Seed: 5, Evidence: genEvidence(t, m)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []ip6.Addr
			for _, workers := range []int{1, 2, 3, 8} {
				opts := tc.opts
				opts.Workers = workers
				got, err := m.Generate(opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if want == nil {
					want = got
					if len(want) == 0 {
						t.Fatal("no candidates generated")
					}
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d candidates, want %d", workers, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: candidate %d differs: %v vs %v", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestGeneratePrefixesDeterministicAcrossWorkers mirrors the address
// test for /64 prefix generation.
func TestGeneratePrefixesDeterministicAcrossWorkers(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 24, Options{})
	var want []ip6.Prefix
	for _, workers := range []int{1, 4} {
		got, err := m.GeneratePrefixes(GenerateOptions{Count: 2000, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d prefixes, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: prefix %d differs: %v vs %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestGenerateParallelExcludeEvidence checks exclusion and evidence on
// the parallel engine: with Count >= genParallelCutoff and several
// workers, the merge loop reads producer batches, and the
// requested count, uniqueness, exclusion and evidence must all hold.
func TestGenerateParallelExcludeEvidence(t *testing.T) {
	m, addrs := buildTestModel(t, 4000, 25, Options{})
	exclude := ip6.NewSet(len(addrs))
	exclude.AddAll(addrs)
	got, err := m.Generate(GenerateOptions{
		Count: 1500, Seed: 3, Workers: 4, Exclude: exclude,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1500 {
		t.Fatalf("generated %d, want 1500", len(got))
	}
	seen := ip6.NewSet(len(got))
	for _, a := range got {
		if !seen.Add(a) {
			t.Fatalf("duplicate candidate %v", a)
		}
		if exclude.Contains(a) {
			t.Fatalf("excluded address %v was generated", a)
		}
	}

	ev := genEvidence(t, m)
	sm := m.Segments[len(m.Segments)-1]
	want := sm.Values[0]
	got, err = m.Generate(GenerateOptions{Count: 1100, Seed: 4, Workers: 4, Evidence: ev})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no candidates generated under evidence")
	}
	seen = ip6.NewSet(len(got))
	for _, a := range got {
		if !seen.Add(a) {
			t.Fatalf("duplicate candidate %v under evidence", a)
		}
		if !want.Contains(sm.Seg.Value(a)) {
			t.Fatalf("candidate %v violates evidence %v", a, ev)
		}
	}
}

// TestGenerateProducerPanicIsError pins panic containment in the
// producer goroutines: draws panic from the 100th on, inside the first
// batch of most substreams, and that surfaces as a *PanicError from the
// run instead of killing the process; every producer goroutine exits
// once the run returns.
func TestGenerateProducerPanicIsError(t *testing.T) {
	before := runtime.NumGoroutine()
	var draws atomic.Int64
	r := &genRun{
		count:       genParallelCutoff,
		maxAttempts: 20 * genParallelCutoff,
		draw: func(rng *rand.Rand, buf []int) (ip6.Addr, error) {
			if draws.Add(1) >= 100 {
				panic("draw exploded")
			}
			return ip6.AddrFromUint64s(0, rng.Uint64()), nil
		},
		excluded: func(ip6.Addr) bool { return false },
		yield:    func(ip6.Addr) bool { return true },
		workers:  2,
		bufLen:   1,
	}
	err := r.run()
	if !errors.Is(err, ErrGeneratorPanic) {
		t.Fatalf("run returned %v, want an ErrGeneratorPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "draw exploded" || len(pe.Stack) == 0 {
		t.Fatalf("panic error %#v lacks the panic value or stack", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGenerateParallelSmallSupport checks the attempt budget bounds the
// parallel engine: a nearly-enumerable model must stop after exactly
// Count×MaxAttemptsFactor draws rather than spin. Without evidence Stop
// is polled once per stopPollInterval attempts, so the number of polls
// pins the number of attempts.
func TestGenerateParallelSmallSupport(t *testing.T) {
	var addrs []ip6.Addr
	base := ip6.MustParseAddr("2001:db8::")
	for i := 0; i < 8; i++ {
		addrs = append(addrs, base.SetField(31, 1, uint64(i)))
	}
	for i := 0; i < 100; i++ {
		addrs = append(addrs, addrs[i%8])
	}
	m, err := Build(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const count, factor = 10000, 2
	var polls atomic.Int64
	got, err := m.Generate(GenerateOptions{
		Count: count, Seed: 1, MaxAttemptsFactor: factor, Workers: 4,
		Stop: func() bool { polls.Add(1); return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= count {
		t.Fatalf("generated %d candidates, want some but fewer than %d", len(got), count)
	}
	seen := ip6.NewSet(len(got))
	for _, a := range got {
		if !seen.Add(a) {
			t.Fatalf("duplicate candidate %v", a)
		}
	}
	if n, want := polls.Load(), int64(count*factor/stopPollInterval); n != want {
		t.Errorf("Stop polled %d times, want %d (one per %d of %d attempts)", n, want, stopPollInterval, count*factor)
	}
}

// TestGenerateStopLatencyWithEvidence is the cancellation regression
// test: with evidence set, Stop is polled on every attempt (not every
// stopPollInterval), so a disconnected client halts generation after at
// most a handful of draws — sequentially and in parallel.
func TestGenerateStopLatencyWithEvidence(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 26, Options{})
	ev := genEvidence(t, m)
	for _, workers := range []int{1, 4} {
		var emitted atomic.Int64
		var stopped atomic.Bool
		stopped.Store(true)
		start := time.Now()
		err := m.GenerateStream(GenerateOptions{
			Count:    1 << 20,
			Seed:     1,
			Evidence: ev,
			Workers:  workers,
			Stop:     func() bool { return stopped.Load() },
		}, func(ip6.Addr) bool {
			emitted.Add(1)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := emitted.Load(); n != 0 {
			t.Errorf("workers=%d: emitted %d candidates after Stop, want 0", workers, n)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("workers=%d: generation took %v to notice Stop", workers, d)
		}
	}
}

// TestGenerateStopMidStreamWithEvidence flips Stop while candidates are
// flowing: per-attempt polling means at most one further candidate can
// be emitted after Stop becomes true.
func TestGenerateStopMidStreamWithEvidence(t *testing.T) {
	m, _ := buildTestModel(t, 3000, 27, Options{})
	var stopped atomic.Bool
	var emitted int
	err := m.GenerateStream(GenerateOptions{
		Count:    1 << 20,
		Seed:     2,
		Evidence: genEvidence(t, m),
		Workers:  4,
		Stop:     func() bool { return stopped.Load() },
	}, func(ip6.Addr) bool {
		emitted++
		if emitted == 50 {
			stopped.Store(true)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted > 51 {
		t.Errorf("emitted %d candidates, want <= 51 (per-attempt Stop polling)", emitted)
	}
}

// TestLoadRenormalizesDriftedRows pins the load-time healing: a model
// file whose CPT rows drifted (e.g. written by a truncating tool) loads
// with exactly-normalized rows instead of being rejected or sampling
// biased.
func TestLoadRenormalizesDriftedRows(t *testing.T) {
	m, _ := buildTestModel(t, 2000, 28, Options{})
	// Simulate a truncating writer: scale a row so it sums to ~0.9994.
	row := m.Net.CPTs[len(m.Net.CPTs)-1].Rows[0]
	for k := range row {
		row[k] *= 0.9994
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("drifted model failed to load: %v", err)
	}
	for i, cpt := range loaded.Net.CPTs {
		for j, row := range cpt.Rows {
			sum := 0.0
			for _, v := range row {
				sum += v
			}
			if diff := sum - 1; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("node %d row %d sums to %v after load", i, j, sum)
			}
		}
	}
}
