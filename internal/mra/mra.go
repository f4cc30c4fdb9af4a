// Package mra computes Multi-Resolution Aggregate style prefix counts and
// the 4-bit Aggregate Count Ratio (ACR) series that Entropy/IP plots next
// to per-nybble entropy (Figs. 1, 7-10 of the paper).
//
// The paper borrows the ACR concept from Plonka & Berger (IMC 2015) without
// restating a formula; the definition implemented here is documented in
// DESIGN.md: with c(d) the number of distinct d-nybble (4·d-bit) prefixes
// observed in the set and c(0)=1, the ACR at nybble d (1-based) is
//
//	ACR(d) = 1 − c(d−1)/c(d).
//
// ACR(d) is 0 when nybble d never splits existing aggregates (it carries no
// prefix-discriminating information) and approaches 1 when each aggregate
// at depth d−1 splits into many aggregates at depth d. This matches the
// qualitative reading used in the paper: "the higher the ACR value, the
// more pertinent to prefix discrimination a given segment is."
//
// New derives the counts from one sort of the addresses (see New);
// FromCounts rebuilds a series from saved counts, so the ACR formula lives
// only here.
package mra

import (
	"cmp"
	"math/bits"
	"slices"

	"entropyip/internal/ip6"
)

// Series holds prefix counts and ACR values for a dataset at every 4-bit
// boundary.
type Series struct {
	// Counts[d] is the number of distinct d-nybble prefixes, d = 0..32.
	Counts [ip6.NybbleCount + 1]int
	// ACR[i] is the aggregate count ratio of nybble i (0-based, 0..31),
	// each in [0, 1).
	ACR [ip6.NybbleCount]float64
	// N is the number of addresses analyzed (with multiplicity).
	N int
}

// word is an address as its high and low 64-bit halves; ordering words by
// (hi, lo) is address order.
type word struct{ hi, lo uint64 }

// New computes the ACR series for the given addresses.
//
// It sorts a copy of the addresses and takes the common-prefix length of
// every adjacent sorted pair. The number of distinct d-nybble prefixes is
// then
//
//	counts[d] = 1 + #{adjacent pairs with LCP < d nybbles},
//
// because in sorted order every new d-prefix starts exactly where an
// adjacent pair first differs before depth d. The sorted order of a
// multiset is unique, so the series depends only on the addresses.
func New(addrs []ip6.Addr) *Series {
	var counts [ip6.NybbleCount + 1]int
	if len(addrs) == 0 {
		return FromCounts(counts, 0)
	}
	words := make([]word, len(addrs))
	for i, a := range addrs {
		words[i].hi, words[i].lo = a.Uint64s()
	}
	slices.SortFunc(words, func(a, b word) int {
		if c := cmp.Compare(a.hi, b.hi); c != 0 {
			return c
		}
		return cmp.Compare(a.lo, b.lo)
	})
	// lcp[l] is the number of adjacent pairs whose LCP is exactly l
	// nybbles; those pairs first differ before every depth d > l.
	var lcp [ip6.NybbleCount + 1]int
	for i := 1; i < len(words); i++ {
		lcp[lcpNybbles(words[i-1], words[i])]++
	}
	counts[0] = 1
	for d := 1; d <= ip6.NybbleCount; d++ {
		counts[d] = counts[d-1] + lcp[d-1]
	}
	return FromCounts(counts, len(addrs))
}

// lcpNybbles returns the length, in nybbles, of the longest common prefix
// of two addresses (32 for equal addresses).
func lcpNybbles(a, b word) int {
	if x := a.hi ^ b.hi; x != 0 {
		return bits.LeadingZeros64(x) / 4
	}
	return 16 + bits.LeadingZeros64(a.lo^b.lo)/4
}

// FromCounts returns the series for the given distinct-prefix counts of n
// addresses, deriving the ACR of every nybble from the counts.
func FromCounts(counts [ip6.NybbleCount + 1]int, n int) *Series {
	s := &Series{Counts: counts, N: n}
	for d := 1; d <= ip6.NybbleCount; d++ {
		prev, cur := counts[d-1], counts[d]
		if cur > 0 && prev > 0 {
			s.ACR[d-1] = 1 - float64(prev)/float64(cur)
		}
	}
	return s
}

// AggregatesAt returns the number of distinct prefixes of the given bit
// length. Only 4-bit aligned lengths are tracked; other lengths return the
// count at the next shorter aligned length.
func (s *Series) AggregatesAt(bits int) int {
	if bits < 0 {
		return 0
	}
	d := bits / 4
	if d > ip6.NybbleCount {
		d = ip6.NybbleCount
	}
	return s.Counts[d]
}

// MeanACR returns the mean ACR over a half-open nybble range [from, to).
// It is a convenience for summarizing how strongly a segment discriminates
// prefixes.
func (s *Series) MeanACR(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > ip6.NybbleCount {
		to = ip6.NybbleCount
	}
	if to <= from {
		return 0
	}
	sum := 0.0
	for i := from; i < to; i++ {
		sum += s.ACR[i]
	}
	return sum / float64(to-from)
}
