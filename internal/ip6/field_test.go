package ip6

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The nybble round trip below is the reference Addr.Field and
// Addr.SetField are checked against: expand to 32 nybbles, read or write
// one at a time, pack back.

// refField extracts nybbles [start, start+width) of n, most significant
// first.
func refField(n Nybbles, start, width int) uint64 {
	var v uint64
	for i := start; i < start+width; i++ {
		v = v<<4 | uint64(n[i]&0x0f)
	}
	return v
}

// refSetField writes the width lowest nybbles of v into nybbles
// [start, start+width) of n.
func refSetField(n Nybbles, start, width int, v uint64) Nybbles {
	for i := width - 1; i >= 0; i-- {
		n[start+i] = byte(v & 0x0f)
		v >>= 4
	}
	return n
}

// checkField compares Field and SetField with the nybble reference for one
// address, field and value.
func checkField(t *testing.T, a Addr, start, width int, v uint64) {
	t.Helper()
	n := a.Nybbles()
	if got, want := a.Field(start, width), refField(n, start, width); got != want {
		t.Fatalf("%v.Field(%d, %d) = %#x, want %#x", a, start, width, got, want)
	}
	if got, want := a.SetField(start, width, v), refSetField(n, start, width, v).Addr(); got != want {
		t.Fatalf("%v.SetField(%d, %d, %#x) = %v, want %v", a, start, width, v, got, want)
	}
}

// TestFieldMatchesNybbleReference covers every valid (start, width) with
// 0 <= width <= 16 — including the fields that straddle bit 64 — with
// random addresses and values, plus the all-zeros and all-ones extremes.
func TestFieldMatchesNybbleReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ones := AddrFromUint64s(^uint64(0), ^uint64(0))
	for width := 0; width <= 16; width++ {
		for start := 0; start+width <= NybbleCount; start++ {
			checkField(t, Addr{}, start, width, ^uint64(0))
			checkField(t, ones, start, width, 0)
			for i := 0; i < 20; i++ {
				a := AddrFromUint64s(rng.Uint64(), rng.Uint64())
				checkField(t, a, start, width, rng.Uint64())
			}
		}
	}
}

// TestFieldRejectsInvalidRanges checks both accessors keep the bounds
// panic for every kind of invalid field.
func TestFieldRejectsInvalidRanges(t *testing.T) {
	for _, f := range [][2]int{{0, 17}, {-1, 4}, {0, -1}, {30, 3}, {32, 1}, {17, 16}, {math.MaxInt, 1}} {
		start, width := f[0], f[1]
		for name, call := range map[string]func(){
			"Field":    func() { Addr{}.Field(start, width) },
			"SetField": func() { Addr{}.SetField(start, width, 1) },
		} {
			t.Run(fmt.Sprintf("%s(%d,%d)", name, start, width), func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Errorf("no panic")
					}
				}()
				call()
			})
		}
	}
}

// FuzzSetField checks Field and SetField against the nybble reference on
// arbitrary addresses, fields and values. Out-of-range fields must panic.
func FuzzSetField(f *testing.F) {
	f.Add(uint64(0x20010db800000000), uint64(1), 8, 4, uint64(0xffff))
	f.Add(uint64(0), uint64(0), 12, 16, ^uint64(0)) // straddles bit 64
	f.Add(^uint64(0), ^uint64(0), 32, 0, uint64(1))
	f.Add(uint64(1), uint64(2), 16, 16, uint64(3))
	f.Fuzz(func(t *testing.T, hi, lo uint64, start, width int, v uint64) {
		a := AddrFromUint64s(hi, lo)
		if width < 0 || width > 16 || start < 0 || start > NybbleCount-width {
			defer func() {
				if recover() == nil {
					t.Fatalf("Field(%d, %d) did not panic", start, width)
				}
			}()
			a.SetField(start, width, v)
			return
		}
		checkField(t, a, start, width, v)
	})
}

// BenchmarkSetField writes a field that straddles bit 64, the widest
// case of the word kernel.
func BenchmarkSetField(b *testing.B) {
	a := MustParseAddr("2001:db8:221:ffff:ffff:ffff:ffc0:122a")
	for i := 0; i < b.N; i++ {
		a = a.SetField(12, 8, uint64(i))
	}
	if a.IsZero() {
		b.Fatal("unreachable")
	}
}
