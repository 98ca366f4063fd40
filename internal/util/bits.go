package util

// Log2 returns the base-2 logarithm of n for powers of two, and the floor
// of log2 otherwise. Log2(0) and Log2(1) return 0.
func Log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// Mix64 is a strong 64-bit finalizer (splitmix64) used to hash PCs,
// histories and tags into table indexes.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// FoldBits folds the low n bits of x down to width bits by XOR-ing
// successive width-bit chunks. Folding is how TAGE-style predictors
// compress long global histories into index- and tag-sized values.
func FoldBits(x uint64, n, width int) uint64 {
	if width <= 0 || n <= 0 {
		return 0
	}
	if n < 64 {
		x &= (uint64(1) << n) - 1
	}
	var folded uint64
	for n > 0 {
		folded ^= x & ((uint64(1) << width) - 1)
		x >>= width
		n -= width
	}
	return folded & ((uint64(1) << width) - 1)
}

// TruncateSigned clamps a full 64-bit stride to what a width-bit signed
// field can represent, returning the stored field value and whether the
// stride was representable. Strides that overflow the field are the reason
// partial-stride D-VTAGE loses a little coverage (Section VI-B(a)).
func TruncateSigned(v int64, width int) (stored int64, ok bool) {
	if width >= 64 {
		return v, true
	}
	min := -(int64(1) << (width - 1))
	max := (int64(1) << (width - 1)) - 1
	if v < min || v > max {
		return 0, false
	}
	return v, true
}
