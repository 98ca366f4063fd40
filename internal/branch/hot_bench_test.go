package branch

import (
	"testing"

	"bebop/internal/util"
)

// Micro-benchmarks for the per-branch hot path: History.Push and
// History.Fold below the whole-pipeline level, so a regression in the
// folded-register machinery is visible without running bebop-bench.
//
// The folded/registered variants are the production configuration; the
// plain/slow variants are the from-scratch reference path they replaced.

var benchSink uint64

// benchHistory returns a history carrying the default TAGE predictor's
// full fold registration (12 components × 3 widths), the realistic
// per-branch register load.
func benchHistory() (*History, *TAGE) {
	var h History
	h.EnableFolds()
	t := NewTAGE(DefaultTAGEConfig())
	t.RegisterFolds(&h)
	return &h, t
}

func BenchmarkHistoryPush(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		var h History
		for i := 0; i < b.N; i++ {
			h.Push(i&3 != 0, uint64(i)<<2)
		}
		benchSink += h.Path()
	})
	b.Run("folded", func(b *testing.B) {
		h, _ := benchHistory()
		for i := 0; i < b.N; i++ {
			h.Push(i&3 != 0, uint64(i)<<2)
		}
		benchSink += h.Path()
	})
}

func BenchmarkHistoryFold(b *testing.B) {
	rng := util.NewRNG(0xBE7C)
	fill := func(h *History) {
		for i := 0; i < MaxHistoryBits; i++ {
			h.Push(rng.Bool(0.5), rng.Uint64())
		}
	}
	// The worst-case pair: the full 256-bit window folded to an index.
	const n, width = MaxHistoryBits, 9
	b.Run("registered", func(b *testing.B) {
		var h History
		h.EnableFolds()
		h.RegisterFold(n, width)
		fill(&h)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += h.Fold(n, width)
		}
	})
	b.Run("slow", func(b *testing.B) {
		var h History
		fill(&h)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += h.Fold(n, width)
		}
	})
}

func BenchmarkTAGEPredict(b *testing.B) {
	h, t := benchHistory()
	rng := util.NewRNG(0x7A6E)
	for i := 0; i < 512; i++ {
		h.Push(rng.Bool(0.5), rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := t.Predict(uint64(0x400000+16*(i&1023)), h)
		if p.Taken {
			benchSink++
		}
	}
}

func BenchmarkTAGEPredictUpdate(b *testing.B) {
	h, t := benchHistory()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x400000 + 16*(i&1023))
		taken := (i>>2)&1 == 0
		p := t.Predict(pc, h)
		if p.Taken != taken {
			benchSink++
		}
		t.Update(pc, h, &p, taken)
		h.Push(taken, pc+4)
	}
}
