package predictor

import (
	"testing"

	"bebop/internal/branch"
)

// Micro-benchmarks for the per-fetch-block D-VTAGE hot path (block
// lookup and retire-time update), so table-layout regressions are
// visible below the whole-pipeline level. The configuration is the
// Table III "Medium" block predictor shape (6 predictions per entry).

var dvtSink uint64

func benchDVTAGE() (*DVTAGE, *branch.History) {
	cfg := DefaultDVTAGEConfig()
	cfg.NPred = 6
	cfg.BaseEntries = 2048
	cfg.TaggedEntries = 512
	cfg.StrideBits = 16
	d := NewDVTAGE(cfg)
	var h branch.History
	h.EnableFolds()
	d.RegisterFolds(&h)
	// Warm the tables and the history with a few hundred blocks.
	for i := 0; i < 512; i++ {
		pc := uint64(0x400000 + 64*(i&127))
		bl := d.Lookup(pc, &h)
		u := UpdateBlock{Lookup: bl}
		for s := 0; s < 3; s++ {
			u.Slots[s] = SlotUpdate{
				Used: true, Actual: uint64(i * (s + 1)),
				WasPredicted: bl.LVTHit && bl.HasLast[s],
				ByteTag:      uint8(4 * s),
			}
		}
		d.Update(&u)
		h.Push(i&3 != 0, pc)
	}
	return d, &h
}

func BenchmarkDVTAGELookup(b *testing.B) {
	d, h := benchDVTAGE()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := d.Lookup(uint64(0x400000+64*(i&127)), h)
		if bl.LVTHit {
			dvtSink++
		}
	}
}

func BenchmarkDVTAGELookupUpdate(b *testing.B) {
	d, h := benchDVTAGE()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x400000 + 64*(i&127))
		bl := d.Lookup(pc, h)
		u := UpdateBlock{Lookup: bl}
		for s := 0; s < 3; s++ {
			pred, conf := d.PredictSlot(&bl, s, bl.Last[s], bl.LVTHit && bl.HasLast[s])
			u.Slots[s] = SlotUpdate{
				Used: true, Actual: uint64(i * (s + 1)), Predicted: pred,
				WasPredicted: bl.LVTHit && bl.HasLast[s], ByteTag: uint8(4 * s),
			}
			if conf {
				dvtSink++
			}
		}
		d.Update(&u)
		h.Push(i&3 != 0, pc)
	}
}
