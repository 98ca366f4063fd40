package branch

import (
	"testing"

	"bebop/internal/util"
)

// foldPairs is the differential pair set: every word-count regime
// (n <= 64, crossing 1..3 word boundaries, exact multiples of 64), widths
// below/above n, widths dividing and not dividing 64, and the extremes.
func foldPairs() [][2]int {
	return [][2]int{
		{1, 1}, {1, 5}, {2, 10}, {3, 2}, {4, 9}, {5, 5}, {7, 3},
		{16, 9}, {31, 13}, {63, 9}, {64, 9}, {64, 10}, {64, 63},
		{65, 9}, {70, 10}, {100, 13}, {127, 12}, {128, 9}, {128, 14},
		{129, 11}, {180, 17}, {192, 9}, {193, 10}, {200, 8},
		{255, 9}, {256, 9}, {256, 12}, {256, 63}, {37, 37}, {40, 63},
	}
}

// TestFoldedRegistersMatchSlowFold drives a fold-enabled history and a
// plain one through the same random outcome stream and checks every
// registered pair after every push: the incrementally maintained register
// must equal the from-scratch fold bit for bit.
func TestFoldedRegistersMatchSlowFold(t *testing.T) {
	var h, ref History
	h.EnableFolds()
	for _, p := range foldPairs() {
		h.RegisterFold(p[0], p[1])
	}
	if got, want := h.FoldRegisters(), len(foldPairs()); got != want {
		t.Fatalf("FoldRegisters = %d, want %d", got, want)
	}
	rng := util.NewRNG(0xF01D)
	for i := 0; i < 2000; i++ {
		taken := rng.Bool(0.6)
		target := rng.Uint64()
		h.Push(taken, target)
		ref.Push(taken, target)
		for _, p := range foldPairs() {
			if got, want := h.Fold(p[0], p[1]), ref.Fold(p[0], p[1]); got != want {
				t.Fatalf("push %d: Fold(%d,%d) = %#x, want %#x", i, p[0], p[1], got, want)
			}
		}
	}
}

// TestFoldRegistrationMidstream registers a pair after history has
// accumulated: the new register must be seeded from the live contents.
func TestFoldRegistrationMidstream(t *testing.T) {
	var h, ref History
	h.EnableFolds()
	rng := util.NewRNG(0x5EED)
	for i := 0; i < 300; i++ {
		taken := rng.Bool(0.5)
		h.Push(taken, rng.Uint64())
		ref.dir = h.dir
		if i == 150 {
			h.RegisterFold(100, 11)
		}
	}
	if got, want := h.Fold(100, 11), ref.Fold(100, 11); got != want {
		t.Fatalf("midstream-registered Fold(100,11) = %#x, want %#x", got, want)
	}
}

// TestFoldSnapshotRestoreRecomputes checks mispredict-recovery semantics:
// a snapshot taken before further pushes restores both the raw bits and
// every register value.
func TestFoldSnapshotRestoreRecomputes(t *testing.T) {
	var h History
	h.EnableFolds()
	h.RegisterFold(70, 10)
	h.RegisterFold(200, 13)
	rng := util.NewRNG(0xC4)
	for i := 0; i < 500; i++ {
		h.Push(rng.Bool(0.5), rng.Uint64())
	}
	snap := h.Snapshot()
	want70, want200 := h.Fold(70, 10), h.Fold(200, 13)
	for i := 0; i < 40; i++ {
		h.Push(rng.Bool(0.5), rng.Uint64())
	}
	h.Restore(snap)
	if got := h.Fold(70, 10); got != want70 {
		t.Fatalf("restored Fold(70,10) = %#x, want %#x", got, want70)
	}
	if got := h.Fold(200, 13); got != want200 {
		t.Fatalf("restored Fold(200,13) = %#x, want %#x", got, want200)
	}
	h.Reset()
	if got := h.Fold(70, 10); got != 0 {
		t.Fatalf("reset Fold(70,10) = %#x, want 0", got)
	}
	var zero History
	if got, want := h.Fold(200, 13), zero.Fold(200, 13); got != want {
		t.Fatalf("reset Fold(200,13) = %#x, want %#x", got, want)
	}
}

// TestFoldUnregisteredFallsBack pins that unregistered pairs and
// out-of-range pairs still work through the reference path on a
// fold-enabled history.
func TestFoldUnregisteredFallsBack(t *testing.T) {
	var h, ref History
	h.EnableFolds()
	h.RegisterFold(64, 9)
	// Out-of-range registrations are ignored, not panics.
	h.RegisterFold(0, 9)
	h.RegisterFold(-3, 9)
	h.RegisterFold(64, 0)
	h.RegisterFold(MaxHistoryBits+1, 9)
	h.RegisterFold(64, maxFoldWidth+1)
	if got := h.FoldRegisters(); got != 1 {
		t.Fatalf("FoldRegisters = %d, want 1", got)
	}
	rng := util.NewRNG(0xFA11)
	for i := 0; i < 200; i++ {
		taken := rng.Bool(0.4)
		tgt := rng.Uint64()
		h.Push(taken, tgt)
		ref.Push(taken, tgt)
	}
	for _, p := range [][2]int{{50, 7}, {64, 9}, {256, 20}, {0, 5}, {5, 0}} {
		if got, want := h.Fold(p[0], p[1]), ref.Fold(p[0], p[1]); got != want {
			t.Fatalf("Fold(%d,%d) = %#x, want %#x", p[0], p[1], got, want)
		}
	}
}

// TestClearFolds pins the recycled-processor contract: dropping all
// registrations keeps the register file attached, reuses its backing
// array, and leaves later re-registrations working.
func TestClearFolds(t *testing.T) {
	var h History
	h.EnableFolds()
	h.RegisterFold(64, 9)
	h.RegisterFold(128, 11)
	rng := util.NewRNG(0xC1EA)
	for i := 0; i < 100; i++ {
		h.Push(rng.Bool(0.5), rng.Uint64())
	}
	h.ClearFolds()
	if got := h.FoldRegisters(); got != 0 {
		t.Fatalf("FoldRegisters after ClearFolds = %d, want 0", got)
	}
	// Cleared pairs fall back to the reference path, not a stale slot.
	var ref History
	ref.dir = h.dir
	if got, want := h.Fold(64, 9), ref.Fold(64, 9); got != want {
		t.Fatalf("cleared Fold(64,9) = %#x, want reference %#x", got, want)
	}
	// Re-registration seeds from live history and resumes incremental
	// maintenance.
	h.RegisterFold(64, 9)
	if got := h.FoldRegisters(); got != 1 {
		t.Fatalf("FoldRegisters after re-register = %d, want 1", got)
	}
	for i := 0; i < 100; i++ {
		taken := rng.Bool(0.5)
		tgt := rng.Uint64()
		h.Push(taken, tgt)
		ref.Push(taken, tgt)
	}
	if got, want := h.Fold(64, 9), ref.Fold(64, 9); got != want {
		t.Fatalf("re-registered Fold(64,9) = %#x, want %#x", got, want)
	}
}
