package branch

import (
	"testing"

	"bebop/internal/util"
)

// Micro-benchmarks for the per-branch hot path: History.Push and
// History.Fold below the whole-pipeline level, so a regression in the
// folded-register machinery is visible without running perfbench.
//
// The folded/registered variants are the production configuration; the
// plain/slow variants are the from-scratch reference path they replaced.
// BenchmarkTaggedLookup is the tagged core's index-and-match alone.

var benchSink uint64

// benchHistory returns a history carrying the default TAGE predictor's
// fold registers (12 components × 3 widths, created by its first
// lookup), the realistic per-branch register load.
func benchHistory() (*History, *TAGE) {
	var h History
	h.EnableFolds()
	t := NewTAGE(DefaultTAGEConfig())
	t.Predict(0, &h)
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
		h.Fold(n, width)
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
		t.Update(&p, taken)
		h.Push(taken, pc+4)
	}
}

func BenchmarkTaggedLookup(b *testing.B) {
	h, t := benchHistory()
	rng := util.NewRNG(0x7A66)
	for i := 0; i < 4096; i++ { // train the tables so lookups match
		pc := uint64(0x400000 + 16*(i&1023))
		taken := rng.Bool(0.5)
		p := t.Predict(pc, h)
		t.Update(&p, taken)
		h.Push(taken, pc+4)
	}
	var entries [16]int32
	var tags [16]uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := util.Mix64(uint64(0x400000 + 16*(i&1023)))
		if prov, _ := t.tagged.Lookup(key, key, h, entries[:], tags[:]); prov >= 0 {
			benchSink++
		}
	}
}
