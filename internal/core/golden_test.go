package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"entropyip/internal/ip6"
	"entropyip/internal/segment"
	"entropyip/internal/synth"
)

// goldenCount is the number of candidates each golden stream hashes.
const goldenCount = 100_000

// goldenModel trains a fixed model for the golden streams: 1K addresses
// (the paper's "train on 1K" setting) of a synthetic population, seed 1.
func goldenModel(t *testing.T, dataset string, opts Options) *Model {
	t.Helper()
	return goldenModelN(t, dataset, 1000, opts)
}

// goldenModelN trains a model on n addresses of a synthetic population,
// seed 1.
func goldenModelN(t *testing.T, dataset string, n int, opts Options) *Model {
	t.Helper()
	addrs, err := synth.Generate(dataset, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// straddles64 reports whether any segment spans nybbles on both sides of
// bit 64.
func straddles64(sg *segment.Segmentation) bool {
	for _, s := range sg.Segments {
		if s.Start < 16 && s.End() > 16 {
			return true
		}
	}
	return false
}

// TestGoldenStreams pins the SHA-256 of the first goldenCount candidates
// of fixed models and seeds. The hashes are the seed-replay contract: a
// client replaying X-Seed gets the same stream from every later version
// of the generator. The encoder and sampler may change in any way that
// keeps these hashes; a change here is a breaking change to every
// recorded seed. Every stream is checked at Workers 1 and GOMAXPROCS.
func TestGoldenStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("golden streams draw 800k candidates")
	}
	base := goldenModel(t, "S5", Options{})
	// S5's entropy profile crosses a threshold at bit 64 on its own; S1's
	// does not, so without the default forced boundary at 64 one of its
	// segments spans both 64-bit halves.
	straddle := goldenModel(t, "S1", Options{Segmentation: segment.Config{ForcedBoundaries: []int{40}}})
	if !straddles64(straddle.Segmentation) {
		t.Fatalf("ForcedBoundaries [40] model has no segment straddling bit 64: %v", straddle.Segmentation.Segments)
	}
	first := base.Segments[0]
	evidence := Evidence{first.Seg.Label: first.Values[0].Code}

	addrHash := func(m *Model, opts GenerateOptions) (int, string) {
		h := sha256.New()
		n := 0
		var buf []byte
		err := m.GenerateStream(opts, func(a ip6.Addr) bool {
			buf = a.AppendBinary(buf[:0])
			h.Write(buf)
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, hex.EncodeToString(h.Sum(nil))
	}
	prefixHash := func(m *Model, opts GenerateOptions) (int, string) {
		h := sha256.New()
		n := 0
		var buf []byte
		err := m.GeneratePrefixesStream(opts, func(p ip6.Prefix) bool {
			buf = p.AppendBinary(buf[:0])
			h.Write(buf)
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, hex.EncodeToString(h.Sum(nil))
	}

	cases := []struct {
		name  string
		run   func(GenerateOptions) (int, string)
		opts  GenerateOptions
		count int
		hash  string
	}{
		{
			name:  "addrs",
			run:   func(o GenerateOptions) (int, string) { return addrHash(base, o) },
			opts:  GenerateOptions{Count: goldenCount, Seed: 7},
			count: 100000,
			hash:  "a1cee142f9a7f9cecc085fd85ad26d657454fd492926a3883bd4e66956143f0c",
		},
		{
			name: "prefixes",
			run:  func(o GenerateOptions) (int, string) { return prefixHash(base, o) },
			// S5 trained on 1K has far fewer than goldenCount distinct
			// /64s; a small attempt budget keeps the run short.
			opts:  GenerateOptions{Count: goldenCount, Seed: 8, MaxAttemptsFactor: 2},
			count: 19052,
			hash:  "fd5c0755cdad3c7ada78fbdca58d66088e682e98cd9d0a9a3a0df4343f4116ec",
		},
		{
			name:  "evidence",
			run:   func(o GenerateOptions) (int, string) { return addrHash(base, o) },
			opts:  GenerateOptions{Count: goldenCount, Seed: 9, Evidence: evidence},
			count: 100000,
			hash:  "8636f61285f0704318d7f825b38f1d1fbc3996ed32b8c7c4147416c233137069",
		},
		{
			name:  "straddle64",
			run:   func(o GenerateOptions) (int, string) { return addrHash(straddle, o) },
			opts:  GenerateOptions{Count: goldenCount, Seed: 10},
			count: 100000,
			hash:  "89cfe60e5fc54452d3c608c05adf40457ebf9bb78293be6373b6d6de6af45dc5",
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opts := tc.opts
				opts.Workers = workers
				n, hash := tc.run(opts)
				if n != tc.count || hash != tc.hash {
					t.Errorf("stream changed: got %d candidates sha256 %s, want %d sha256 %s", n, hash, tc.count, tc.hash)
				}
			})
		}
	}
}

// TestGoldenModels pins the SHA-256 of the saved model JSON of fixed
// builds. Training may change in any way that keeps these hashes; a change
// here alters every model trained from the same addresses. Every build is
// checked at Workers 1 and GOMAXPROCS.
func TestGoldenModels(t *testing.T) {
	if testing.Short() {
		t.Skip("golden models train on up to 100k addresses")
	}
	cases := []struct {
		name    string
		dataset string
		n       int
		opts    Options
		hash    string
	}{
		{name: "S5-1k", dataset: "S5", n: 1000, hash: "70e92871c8b8d15612a2f8ed7a7a534bc32560ae7f75362d3d229d4b39163c8c"},
		{
			name: "S1-1k-forced40", dataset: "S1", n: 1000,
			opts: Options{Segmentation: segment.Config{ForcedBoundaries: []int{40}}},
			hash: "b8f57e752f96ee3bb28b589be3da82a23375662c5c3636f3ee30edff93c36af6",
		},
		// The refresh workload's training size.
		{name: "C1-100k", dataset: "C1", n: 100_000, hash: "3267d2bcaa44211cd697a00d715c60e0839fa8a7c946bb102bbc727a328f5961"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opts := tc.opts
				opts.Workers = workers
				var buf bytes.Buffer
				if err := goldenModelN(t, tc.dataset, tc.n, opts).Save(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != tc.hash {
					t.Errorf("model JSON changed: sha256 %s, want %s", got, tc.hash)
				}
			})
		}
	}
}
