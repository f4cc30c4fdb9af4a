package mra

import (
	"fmt"
	"math/rand"
	"testing"

	"entropyip/internal/ip6"
	"entropyip/internal/synth"
)

func TestNewSinglePrefix(t *testing.T) {
	// All addresses identical: every count is 1 and every ACR is 0.
	a := ip6.MustParseAddr("2001:db8::1")
	s := New([]ip6.Addr{a, a, a})
	if s.N != 3 {
		t.Errorf("N = %d", s.N)
	}
	for d := 0; d <= ip6.NybbleCount; d++ {
		if s.Counts[d] != 1 {
			t.Errorf("Counts[%d] = %d, want 1", d, s.Counts[d])
		}
	}
	for i, v := range s.ACR {
		if v != 0 {
			t.Errorf("ACR[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewEmpty(t *testing.T) {
	s := New(nil)
	if s.N != 0 || s.Counts != [ip6.NybbleCount + 1]int{} {
		t.Errorf("N = %d, Counts = %v, want all zero", s.N, s.Counts)
	}
	for _, v := range s.ACR {
		if v != 0 {
			t.Error("ACR of empty set should be all zero")
		}
	}
}

func TestACRDiscriminatingNybble(t *testing.T) {
	// 16 addresses differing only in nybble 12 (bits 48-52): ACR at that
	// nybble should be high (1 - 1/16), zero elsewhere.
	addrs := make([]ip6.Addr, 0, 16)
	base := ip6.MustParseAddr("2001:db8::1")
	for v := 0; v < 16; v++ {
		addrs = append(addrs, base.SetNybble(12, byte(v)))
	}
	s := New(addrs)
	if got, want := s.ACR[12], 1-1.0/16; got != want {
		t.Errorf("ACR[12] = %v, want %v", got, want)
	}
	for i, v := range s.ACR {
		if i != 12 && v != 0 {
			t.Errorf("ACR[%d] = %v, want 0", i, v)
		}
	}
	if s.AggregatesAt(52) != 16 || s.AggregatesAt(48) != 1 {
		t.Errorf("AggregatesAt: %d at /52, %d at /48", s.AggregatesAt(52), s.AggregatesAt(48))
	}
}

func TestACRRandomVsStructured(t *testing.T) {
	// Random IIDs inside one /64: ACR in the top half is zero; ACR in the
	// bottom half is high near the first random nybbles (each prefix splits
	// into many).
	rng := rand.New(rand.NewSource(7))
	base := ip6.MustParseAddr("2001:db8:1:2::")
	addrs := make([]ip6.Addr, 4096)
	for i := range addrs {
		addrs[i] = base.SetField(16, 16, rng.Uint64())
	}
	s := New(addrs)
	for i := 0; i < 16; i++ {
		if s.ACR[i] != 0 {
			t.Errorf("network ACR[%d] = %v, want 0", i, s.ACR[i])
		}
	}
	if s.ACR[16] < 0.9 {
		t.Errorf("ACR[16] = %v, want >= 0.9 (each /64 splits into ~16 /68s)", s.ACR[16])
	}
	// Deep nybbles have ACR near 0: by then almost every prefix is unique
	// already, so an extra nybble rarely splits aggregates.
	if s.ACR[31] > 0.2 {
		t.Errorf("ACR[31] = %v, want near 0", s.ACR[31])
	}
}

func TestACRBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	addrs := make([]ip6.Addr, 1000)
	for i := range addrs {
		var b [16]byte
		rng.Read(b[:])
		addrs[i] = ip6.AddrFrom16(b)
	}
	s := New(addrs)
	for i, v := range s.ACR {
		if v < 0 || v >= 1 {
			t.Errorf("ACR[%d] = %v out of [0,1)", i, v)
		}
	}
	// Counts are monotone non-decreasing with depth.
	for d := 1; d <= ip6.NybbleCount; d++ {
		if s.Counts[d] < s.Counts[d-1] {
			t.Errorf("Counts[%d]=%d < Counts[%d]=%d", d, s.Counts[d], d-1, s.Counts[d-1])
		}
	}
}

func TestMeanACR(t *testing.T) {
	addrs := make([]ip6.Addr, 0, 16)
	base := ip6.MustParseAddr("2001:db8::1")
	for v := 0; v < 16; v++ {
		addrs = append(addrs, base.SetNybble(12, byte(v)))
	}
	s := New(addrs)
	if got := s.MeanACR(12, 13); got != 1-1.0/16 {
		t.Errorf("MeanACR(12,13) = %v", got)
	}
	if got := s.MeanACR(0, 8); got != 0 {
		t.Errorf("MeanACR(0,8) = %v", got)
	}
	if s.MeanACR(5, 5) != 0 || s.MeanACR(-1, 0) != 0 || s.MeanACR(31, 40) != s.ACR[31] {
		t.Error("MeanACR edge cases wrong")
	}
}

func TestAggregatesAtEdges(t *testing.T) {
	s := New([]ip6.Addr{ip6.MustParseAddr("2001:db8::1")})
	if s.AggregatesAt(-4) != 0 {
		t.Error("negative bits should be 0")
	}
	if s.AggregatesAt(0) != 1 {
		t.Error("0 bits should count the root")
	}
	if s.AggregatesAt(1000) != 1 {
		t.Error("overlong bits should clamp to full length")
	}
}

func TestFromCounts(t *testing.T) {
	var counts [ip6.NybbleCount + 1]int
	for d := range counts {
		counts[d] = 1
	}
	for d := 12; d <= ip6.NybbleCount; d++ {
		counts[d] = 2
	}
	s := FromCounts(counts, 2)
	if s.N != 2 || s.Counts != counts {
		t.Errorf("FromCounts: N=%d Counts=%v", s.N, s.Counts)
	}
	for i, v := range s.ACR {
		want := 0.0
		if i == 11 {
			want = 0.5 // counts go from 1 to 2 at depth 12
		}
		if v != want {
			t.Errorf("ACR[%d] = %v, want %v", i, v, want)
		}
	}
	if got := FromCounts([ip6.NybbleCount + 1]int{}, 0); got.ACR != [ip6.NybbleCount]float64{} {
		t.Errorf("zero counts: ACR = %v, want all zero", got.ACR)
	}
}

func TestNewPrefixCounts(t *testing.T) {
	addrs := []ip6.Addr{
		ip6.MustParseAddr("2001:db8:1::1"),
		ip6.MustParseAddr("2001:db8:1::2"),
		ip6.MustParseAddr("2001:db8:2::1"),
		ip6.MustParseAddr("3001:db8::1"),
		ip6.MustParseAddr("2001:db8:1::2"), // duplicates count once
	}
	s := New(addrs)
	if s.N != 5 {
		t.Errorf("N = %d, want 5", s.N)
	}
	// Root; first nybble "2" and "3"; 48 bits: 2001:db8:1, 2001:db8:2,
	// 3001:db8:0; full length: 4 distinct addresses.
	for d, want := range map[int]int{0: 1, 1: 2, 12: 3, 32: 4} {
		if got := s.Counts[d]; got != want {
			t.Errorf("Counts[%d] = %d, want %d", d, got, want)
		}
	}
}

// distinctMasks is the brute-force oracle for New's counts: for every
// depth, the number of distinct addresses masked to 4·d bits.
func distinctMasks(addrs []ip6.Addr) [ip6.NybbleCount + 1]int {
	var counts [ip6.NybbleCount + 1]int
	for d := range counts {
		set := ip6.NewSet(len(addrs))
		for _, a := range addrs {
			set.Add(ip6.Mask(a, 4*d))
		}
		counts[d] = set.Len()
	}
	return counts
}

// TestNewMatchesDistinctMasks checks the sorted-LCP counts against the
// brute-force oracle on a spread population with duplicates, a realistic
// skewed one (everything under a single /32) and synthetic datasets of
// several sizes.
func TestNewMatchesDistinctMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spread := make([]ip6.Addr, 20_000)
	for i := range spread {
		// Many first nybbles, low-entropy tails, duplicates.
		spread[i] = ip6.AddrFromUint64s(rng.Uint64(), rng.Uint64()&0xff)
	}
	base := ip6.MustParseAddr("2001:db8::")
	skewed := make([]ip6.Addr, 20_000)
	for i := range skewed {
		a := base
		a = a.SetField(8, 4, uint64(rng.Intn(64)))
		a = a.SetField(16, 16, rng.Uint64()&0xffffffff)
		skewed[i] = a
	}
	inputs := map[string][]ip6.Addr{"spread": spread, "skewed": skewed}
	for _, ds := range []string{"S1", "S5", "R1", "C1", "AS"} {
		inputs[ds+"/0"] = nil
		for _, n := range []int{1, 2, 1000, 20_000} {
			addrs, err := synth.Generate(ds, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			inputs[fmt.Sprintf("%s/%d", ds, n)] = addrs
		}
	}
	for name, addrs := range inputs {
		got := New(addrs)
		if want := distinctMasks(addrs); got.N != len(addrs) || got.Counts != want {
			t.Errorf("%s: N=%d Counts=%v, want N=%d Counts=%v", name, got.N, got.Counts, len(addrs), want)
		}
	}
}

func BenchmarkNew10K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]ip6.Addr, 10000)
	base := ip6.MustParseAddr("2001:db8::")
	for i := range addrs {
		addrs[i] = base.SetField(16, 16, rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(addrs)
	}
}
