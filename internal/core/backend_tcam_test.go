package core

import (
	"math"
	"testing"

	"ofmtl/internal/xrand"
)

// greedyCover decomposes an inclusive 16-bit range into prefixes the
// classic way — repeatedly take the largest aligned block starting at
// lo that stays within hi — returning (value, prefix length) pairs. It
// is the independent reference rangePrefixCount is checked against.
func greedyCover(lo, hi uint16) [][2]uint16 {
	var out [][2]uint16
	l, h := uint32(lo), uint32(hi)
	for l <= h {
		size := uint32(1)
		plen := uint16(16)
		for plen > 0 {
			next := size << 1
			if l&(next-1) != 0 || l+next-1 > h {
				break
			}
			size = next
			plen--
		}
		out = append(out, [2]uint16{uint16(l), plen})
		l += size
	}
	return out
}

// checkCover asserts the prefixes are aligned, lie inside [lo, hi] and
// cover it exactly once.
func checkCover(t *testing.T, lo, hi uint16, prefixes [][2]uint16) {
	t.Helper()
	total := 0
	for _, p := range prefixes {
		span := 1 << (16 - p[1])
		total += span
		if int(p[0])%span != 0 {
			t.Fatalf("[%d,%d]: prefix %d/%d misaligned", lo, hi, p[0], p[1])
		}
		if p[0] < lo || int(p[0])+span-1 > int(hi) {
			t.Fatalf("[%d,%d]: prefix %d/%d out of bounds", lo, hi, p[0], p[1])
		}
	}
	if total != int(hi)-int(lo)+1 {
		t.Fatalf("[%d,%d]: prefixes cover %d values, want %d", lo, hi, total, int(hi)-int(lo)+1)
	}
}

func TestRangeToPrefixes(t *testing.T) {
	cases := []struct {
		lo, hi uint64
		want   int // expected prefix count
	}{
		{0, 65535, 1},
		{80, 80, 1},
		{0, 1023, 1},
		{1024, 65535, 6},
		{1, 65534, 30}, // classic worst case: 2w-2
		// The 64-bit full span is the one /0 wildcard.
		{0, math.MaxUint64, 1},
		// Ranges ending at the top of the 64-bit space must not wrap.
		{math.MaxUint64, math.MaxUint64, 1},
		{math.MaxUint64 - 1, math.MaxUint64, 1},
		{1 << 63, math.MaxUint64, 1},
		{1, math.MaxUint64, 64},
		{1, math.MaxUint64 - 1, 126}, // 2w-2 at w = 64
	}
	for _, c := range cases {
		if got := rangePrefixCount(c.lo, c.hi); got != c.want {
			t.Errorf("rangePrefixCount(%d, %d) = %d prefixes, want %d", c.lo, c.hi, got, c.want)
		}
		if c.hi <= math.MaxUint16 {
			lo, hi := uint16(c.lo), uint16(c.hi)
			cover := greedyCover(lo, hi)
			checkCover(t, lo, hi, cover)
			if len(cover) != c.want {
				t.Errorf("greedyCover(%d, %d) = %d prefixes, want %d", lo, hi, len(cover), c.want)
			}
		}
	}
}

// Property: rangePrefixCount equals the size of an exact greedy prefix
// cover for arbitrary 16-bit ranges, within the 2w-2 bound.
func TestRangeToPrefixesProperty(t *testing.T) {
	rng := xrand.New(2718)
	for trial := 0; trial < 500; trial++ {
		lo := uint16(rng.Intn(65536))
		hi := lo + uint16(rng.Intn(int(65535-uint32(lo))+1))
		cover := greedyCover(lo, hi)
		checkCover(t, lo, hi, cover)
		got := rangePrefixCount(uint64(lo), uint64(hi))
		if got != len(cover) {
			t.Fatalf("[%d,%d]: rangePrefixCount = %d, greedy cover has %d", lo, hi, got, len(cover))
		}
		// The classic bound: at most 2w-2 prefixes for a 16-bit field.
		if got > 30 {
			t.Fatalf("[%d,%d]: %d prefixes exceeds 2w-2", lo, hi, got)
		}
	}
}
