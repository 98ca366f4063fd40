package util

import (
	"testing"
	"testing/quick"
)

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 4: 2, 8: 3, 1024: 10, 3: 1, 1536: 10}
	for n, want := range cases {
		if got := Log2(n); got != want {
			t.Fatalf("Log2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 4096} {
		if !IsPowerOfTwo(n) {
			t.Fatalf("IsPowerOfTwo(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 4097} {
		if IsPowerOfTwo(n) {
			t.Fatalf("IsPowerOfTwo(%d) = true", n)
		}
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[h] = true
	}
}

func TestMix64Deterministic(t *testing.T) {
	if Mix64(12345) != Mix64(12345) {
		t.Fatal("Mix64 not deterministic")
	}
}

func TestFoldBitsWidth(t *testing.T) {
	f := func(x uint64, n, w uint8) bool {
		nn := int(n%64) + 1
		ww := int(w%16) + 1
		folded := FoldBits(x, nn, ww)
		return folded < uint64(1)<<ww
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFoldBitsUsesOnlyLowN(t *testing.T) {
	// Bits above n must not influence the fold.
	a := FoldBits(0xFFFF0000FFFF0000, 8, 4)
	b := FoldBits(0x0000000000000000, 8, 4)
	if a != b {
		t.Fatalf("FoldBits leaked high bits: %x vs %x", a, b)
	}
}

func TestFoldBitsZeroWidth(t *testing.T) {
	if FoldBits(123, 8, 0) != 0 || FoldBits(123, 0, 8) != 0 {
		t.Fatal("degenerate folds should be 0")
	}
}

func TestTruncateSignedRoundTrip(t *testing.T) {
	// Property: representable values round-trip through the field.
	f := func(v int16, w uint8) bool {
		width := int(w%56) + 8
		stored, ok := TruncateSigned(int64(v), width)
		if width >= 16 {
			return ok && stored == int64(v)
		}
		min := -(int64(1) << (width - 1))
		max := (int64(1) << (width - 1)) - 1
		if int64(v) < min || int64(v) > max {
			return !ok
		}
		return ok && stored == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateSignedOverflow(t *testing.T) {
	if _, ok := TruncateSigned(128, 8); ok {
		t.Fatal("128 must not fit an 8-bit signed field")
	}
	if v, ok := TruncateSigned(127, 8); !ok || v != 127 {
		t.Fatal("127 must fit an 8-bit signed field")
	}
	if v, ok := TruncateSigned(-128, 8); !ok || v != -128 {
		t.Fatal("-128 must fit an 8-bit signed field")
	}
}
