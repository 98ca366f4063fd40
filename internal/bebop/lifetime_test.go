package bebop

import (
	"math/rand"
	"testing"

	"bebop/internal/branch"
	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/specwindow"
)

// TestRepredFlushLeavesFIFOIntact is the regression test for the
// PolicyRepred record-lifetime bug: OnFlush freed the head block while
// older, non-squashed µ-ops still held references to it. When such a µ-op
// later retired, OnRetire walked the FIFO looking for a record that was
// no longer in it, training and draining every in-flight block and
// writing the slot update into the recycled record.
func TestRepredFlushLeavesFIFOIntact(t *testing.T) {
	b := New(testConfig(32, specwindow.PolicyRepred))
	var h branch.History

	// An older block A sits in the FIFO awaiting training.
	aUops := mkBlock(0x1000, 1, []uint8{0}, []uint64{11})
	b.OnFetchBlock(0x1000, 1, &h, aUops)

	// Head block H: two µ-ops; the younger squashes, the older survives.
	hUops := mkBlock(0x2000, 9, []uint8{0, 4}, []uint64{21, 22})
	b.OnFetchBlock(0x2000, 9, &h, hUops)
	if b.fifo.Len() != 2 {
		t.Fatalf("setup: fifo has %d blocks, want 2", b.fifo.Len())
	}

	// Value-mispredict flush at the surviving µ-op, refetching into the
	// same block: Repred frees the head.
	b.OnSquash(hUops[1])
	b.OnFlush(hUops[0].Seq, 0x2000)
	if b.fifo.Len() != 1 || b.fifo.Front() != aUops[0].VPRec.(*blockRec) {
		t.Fatalf("Repred flush should leave exactly block A in the FIFO (len=%d)", b.fifo.Len())
	}

	// The surviving µ-op retires holding a dangling record reference. It
	// must be ignored: block A stays queued (untrained, undrained).
	b.OnRetire(hUops[0])
	if b.fifo.Len() != 1 {
		t.Fatalf("stale retire drained the FIFO: len=%d, want 1", b.fifo.Len())
	}
	rec := b.fifo.Front()
	if !rec.live || rec.blockPC != 0x1000 {
		t.Fatalf("FIFO head corrupted: live=%v blockPC=%#x", rec.live, rec.blockPC)
	}
	if rec.slots[0].Used || rec.anyUsed {
		t.Fatal("stale retire wrote a slot update into another block's record")
	}

	// A stale squash must likewise not touch the recycled record.
	b.OnSquash(hUops[0])
	if rec.consumed[0] {
		t.Fatal("stale squash cleared another block's consumed state")
	}

	// The refetched block trains normally afterwards.
	re := mkBlock(0x2000, 17, []uint8{0, 4}, []uint64{21, 22})
	b.OnFetchBlock(0x2000, 17, &h, re)
	for _, u := range re {
		b.OnRetire(u)
	}
	if b.fifo.Len() != 1 || b.fifo.Front().blockPC != 0x2000 {
		t.Fatalf("refetch did not train block A out of the FIFO (len=%d)", b.fifo.Len())
	}
}

// inflightUop pairs a µ-op with the value its refetch must reproduce.
type inflightUop struct {
	u   *pipeline.UOp
	val uint64
}

// TestRecordLifetimeProperty drives BlockVP through randomized
// fetch/retire/squash-flush sequences under every recovery policy and
// asserts, after every step, that the FIFO holds only live records in
// fetch order, that any dangling µ-op reference is detected as stale
// (never resolved to a live record of another block), and that the stats
// counters keep their defining order UsedCorrect ≤ Used ≤ Attributed ≤
// Eligible.
func TestRecordLifetimeProperty(t *testing.T) {
	policies := []specwindow.Policy{
		specwindow.PolicyIdeal, specwindow.PolicyRepred,
		specwindow.PolicyDnRDnR, specwindow.PolicyDnRR,
	}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xBE0B + int64(pol)))
			b := New(testConfig(16, pol))
			var h branch.History

			blocks := []uint64{0x1000, 0x2000, 0x3000, 0x4000}
			seq := uint64(1)
			var inflight []inflightUop // program order, oldest first

			fetch := func(blockPC uint64) {
				n := 1 + rng.Intn(3)
				bounds := make([]uint8, n)
				vals := make([]uint64, n)
				for i := range bounds {
					bounds[i] = uint8(i * 5)
					vals[i] = blockPC + uint64(i)*8 + uint64(rng.Intn(2))
				}
				uops := mkBlock(blockPC, seq, bounds, vals)
				b.OnFetchBlock(blockPC, seq, &h, uops)
				for i, u := range uops {
					inflight = append(inflight, inflightUop{u, vals[i]})
				}
				seq += uint64(n)
			}

			check := func(step int) {
				t.Helper()
				// FIFO: live records only, in fetch (seq) order.
				var prev uint64
				for i := 0; i < b.fifo.Len(); i++ {
					rec := b.fifo.At(i)
					if !rec.live {
						t.Fatalf("step %d: freed record in the FIFO (block %#x)", step, rec.blockPC)
					}
					if rec.seq < prev {
						t.Fatalf("step %d: FIFO out of order", step)
					}
					prev = rec.seq
				}
				// Every in-flight reference is either resolvable to a live
				// record of the µ-op's own block, or stale (freed under it).
				for _, iu := range inflight {
					if rec := recOf(iu.u); rec != nil && rec.blockPC != isa.BlockPC(iu.u.PC) {
						t.Fatalf("step %d: µ-op %d resolved a record of block %#x, its block is %#x",
							step, iu.u.Seq, rec.blockPC, isa.BlockPC(iu.u.PC))
					}
				}
				s := b.Stats()
				if !(s.UsedCorrect <= s.Used && s.Used <= s.Attributed && s.Attributed <= s.Eligible) {
					t.Fatalf("step %d: stats order violated: %+v", step, s)
				}
			}

			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(10); {
				case op < 4 || len(inflight) == 0: // fetch a block
					if len(inflight) < 64 {
						fetch(blocks[rng.Intn(len(blocks))])
					}
				case op < 8: // retire the oldest µ-op
					iu := inflight[0]
					inflight = inflight[1:]
					iu.u.Value = iu.val
					b.OnRetire(iu.u)
				default: // squash a random tail and flush
					cut := rng.Intn(len(inflight))
					keepSeq := uint64(0)
					if cut > 0 {
						keepSeq = inflight[cut-1].u.Seq
					}
					squashed := inflight[cut:]
					inflight = inflight[:cut]
					for i := len(squashed) - 1; i >= 0; i-- {
						b.OnSquash(squashed[i].u)
					}
					newBlockPC := blocks[rng.Intn(len(blocks))]
					if len(squashed) > 0 {
						newBlockPC = isa.BlockPC(squashed[0].u.PC)
					}
					b.OnFlush(keepSeq, newBlockPC)
					// Refetch the squashed µ-ops grouped into block
					// occurrences with fresh sequence numbers, as the
					// pipeline's refetch would.
					for i := 0; i < len(squashed); {
						j := i
						blockPC := isa.BlockPC(squashed[i].u.PC)
						var bounds []uint8
						var vals []uint64
						for j < len(squashed) && isa.BlockPC(squashed[j].u.PC) == blockPC {
							bounds = append(bounds, squashed[j].u.Boundary)
							vals = append(vals, squashed[j].val)
							j++
						}
						uops := mkBlock(blockPC, seq, bounds, vals)
						b.OnFetchBlock(blockPC, seq, &h, uops)
						for k, u := range uops {
							inflight = append(inflight, inflightUop{u, vals[k]})
						}
						seq += uint64(len(uops))
						i = j
					}
				}
				check(step)
			}

			// Drain: everything left retires; the final stats must still be
			// ordered and the FIFO must contain only live records.
			for _, iu := range inflight {
				iu.u.Value = iu.val
				b.OnRetire(iu.u)
			}
			check(-1)
		})
	}
}
