package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"bebop/internal/branch"
	"bebop/internal/predictor"
)

// callLog is a predictor that records the order of its calls.
type callLog struct{ calls []string }

func (c *callLog) Name() string     { return "log" }
func (c *callLog) StorageBits() int { return 0 }
func (c *callLog) Predict(pc uint64, _ int, _ *branch.History, _ uint64, _ bool) predictor.Outcome {
	c.calls = append(c.calls, fmt.Sprintf("predict %#x", pc))
	return predictor.Outcome{Predicted: true, Value: pc}
}
func (c *callLog) Update(o *predictor.Outcome, actual uint64) {
	c.calls = append(c.calls, fmt.Sprintf("update %#x with %d", o.Value, actual))
}

// TestInstVPWarmPredictsBlockThenTrains: warming an InstVP calls its
// predictor in the order a fetched and retired block does, every
// prediction of the block before the first update.
func TestInstVPWarmPredictsBlockThenTrains(t *testing.T) {
	var h branch.History
	pipe, warm := &callLog{}, &callLog{}

	uops := []*UOp{
		{PC: 0x100, Eligible: true, Value: 1},
		{PC: 0x104},
		{PC: 0x108, Eligible: true, Value: 2},
	}
	vp := NewInstVP(pipe)
	vp.OnFetchBlock(0x100, 1, &h, uops)
	for _, u := range uops {
		vp.OnRetire(u)
	}

	w := make([]WarmUOp, len(uops))
	for i, u := range uops {
		w[i] = WarmUOp{PC: u.PC, Eligible: u.Eligible, Value: u.Value}
	}
	NewInstVP(warm).WarmFetchBlock(0x100, &h, w)

	if !reflect.DeepEqual(warm.calls, pipe.calls) {
		t.Fatalf("warming called the predictor as\n%q\nfetch and retire call it as\n%q", warm.calls, pipe.calls)
	}
}
