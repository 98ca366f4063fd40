package bebop

import (
	"bytes"
	"testing"

	"bebop/internal/branch"
	"bebop/internal/pipeline"
	"bebop/internal/specwindow"
)

// warmBlock builds the WarmUOps of one block occurrence of eligible
// µ-ops at the given byte boundaries.
func warmBlock(blockPC uint64, boundaries []uint8, vals []uint64) []pipeline.WarmUOp {
	uops := make([]pipeline.WarmUOp, len(boundaries))
	for i := range boundaries {
		uops[i] = pipeline.WarmUOp{
			PC:       blockPC + uint64(boundaries[i]),
			Boundary: boundaries[i],
			Eligible: true,
			Value:    vals[i],
		}
	}
	return uops
}

// TestWarmAttributesInPipelineOrder: warming trains D-VTAGE exactly as
// fetch plus retire do when a block's unmatched µ-op precedes a matched
// one. The pipeline matches the whole block at fetch, so the µ-op at
// byte 5 keeps its slot and the one at byte 0 claims the next free slot
// at retire; claiming µ-op by µ-op would hand slot 0 to the byte-0 µ-op
// and let the byte-5 µ-op overwrite it.
func TestWarmAttributesInPipelineOrder(t *testing.T) {
	var h branch.History
	const blockPC, other = 0x50000, 0x60000
	pipe := New(testConfig(0, specwindow.PolicyIdeal))
	warm := New(testConfig(0, specwindow.PolicyIdeal))
	for _, b := range []*BlockVP{pipe, warm} {
		// One result at byte 5 gives the block's slot 0 the byte tag 5.
		b.WarmFetchBlock(blockPC, &h, warmBlock(blockPC, []uint8{5}, []uint64{100}))
	}

	bounds, vals := []uint8{0, 5}, []uint64{7, 200}
	driveBlock(pipe, &h, blockPC, 1, bounds, vals)
	// A younger block's first retire trains the block through the FIFO.
	younger := mkBlock(other, 9, []uint8{0}, []uint64{3})
	pipe.OnFetchBlock(other, 9, &h, younger)
	pipe.OnRetire(younger[0])
	warm.WarmFetchBlock(blockPC, &h, warmBlock(blockPC, bounds, vals))

	if !bytes.Equal(warm.AppendState(nil), pipe.AppendState(nil)) {
		t.Fatal("WarmFetchBlock trained D-VTAGE differently from OnFetchBlock + OnRetire")
	}
}
