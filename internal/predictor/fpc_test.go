package predictor

import "testing"

func TestFPCSaturationPoint(t *testing.T) {
	f := NewFPC(DefaultFPCProbs(), 1)
	if f.max != 7 {
		t.Fatalf("default FPC must saturate at 7, got %d", f.max)
	}
	if f.Saturated(6) {
		t.Fatal("6 must not be saturated")
	}
	if !f.Saturated(7) {
		t.Fatal("7 must be saturated")
	}
}

func TestFPCWrongResets(t *testing.T) {
	f := NewFPC(DefaultFPCProbs(), 1)
	if f.Wrong(7) != 0 {
		t.Fatal("wrong prediction must reset the counter")
	}
}

func TestFPCFirstIncrementAlways(t *testing.T) {
	f := NewFPC(DefaultFPCProbs(), 1)
	// Probability vector starts with 1 => 0 -> 1 deterministic.
	for i := 0; i < 100; i++ {
		if f.Correct(0) != 1 {
			t.Fatal("0 -> 1 must always happen (probability 1)")
		}
	}
}

func TestFPCSaturatedStays(t *testing.T) {
	f := NewFPC(DefaultFPCProbs(), 1)
	if f.Correct(7) != 7 {
		t.Fatal("saturated counter must stay saturated")
	}
}

func TestFPCExpectedSaturationTime(t *testing.T) {
	// With v = {1, 1/16 x4, 1/32 x2}, the expected number of correct
	// predictions to saturate is 1 + 4*16 + 2*32 = 129. Measure the
	// average over many counters and allow generous slack.
	f := NewFPC(DefaultFPCProbs(), 99)
	total := 0
	const trials = 400
	for tr := 0; tr < trials; tr++ {
		c := uint8(0)
		steps := 0
		for !f.Saturated(c) {
			c = f.Correct(c)
			steps++
			if steps > 10000 {
				t.Fatal("counter failed to saturate")
			}
		}
		total += steps
	}
	avg := float64(total) / trials
	if avg < 90 || avg > 175 {
		t.Fatalf("average saturation time %.1f, want ~129", avg)
	}
}

func TestFPCBits(t *testing.T) {
	f := NewFPC(DefaultFPCProbs(), 1)
	if f.Bits() != 3 {
		t.Fatalf("default FPC must cost 3 bits, got %d", f.Bits())
	}
}

func TestFPCPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty probability vector must panic")
		}
	}()
	NewFPC(nil, 1)
}

func TestFPCAccuracyEnforcement(t *testing.T) {
	// The point of FPC: a µ-op that is correct with probability p << 1
	// should essentially never reach saturation, keeping used-prediction
	// accuracy high. Simulate a 90%-correct value stream.
	f := NewFPC(DefaultFPCProbs(), 7)
	rng := newTestRNG(123)
	c := uint8(0)
	saturatedCount := 0
	for i := 0; i < 200000; i++ {
		if rng.Bool(0.90) {
			c = f.Correct(c)
		} else {
			c = f.Wrong(c)
		}
		if f.Saturated(c) {
			saturatedCount++
		}
	}
	// At 90% accuracy the counter saturates extremely rarely: the run
	// length needed (~129) has probability 0.9^129 ~= 1e-6.
	if frac := float64(saturatedCount) / 200000; frac > 0.02 {
		t.Fatalf("90%%-accurate stream was usable %.3f of the time; FPC should filter it", frac)
	}
}
