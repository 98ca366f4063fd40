package pipeline

import (
	"fmt"
	"testing"

	"bebop/internal/branch"
	"bebop/internal/isa"
	"bebop/internal/predictor"
	"bebop/internal/workload"
)

// checkIQ verifies the issue queue's bookkeeping between two cycles:
//
//   - iqCount is at most IQSize and equals the number of ROB µ-ops with
//     InIQ;
//   - each such µ-op sits in exactly one place: the ready list, a live
//     timed-heap entry, or the wait lists of the producers it still
//     waits on (once per pending operand);
//   - the ready list strictly increases in Seq and holds only IQ µ-ops
//     that are due;
//   - a µ-op is on the ready list or due in the heap exactly when both
//     of its producers are available now, which is the readiness test
//     the issue stage must apply;
//   - no dispatched µ-op is still in the open fetch block: predictions
//     are attributed before dispatch, so a dispatched producer can only
//     become available by issuing.
func (p *Processor) checkIQ() error {
	if p.iqCount > p.cfg.IQSize {
		return fmt.Errorf("IQ count %d exceeds IQSize %d", p.iqCount, p.cfg.IQSize)
	}
	inIQ := 0
	links := map[*UOp][2]int{}
	for i := 0; i < p.rob.Len(); i++ {
		u := p.rob.At(i)
		if u.InIQ {
			inIQ++
		}
		n := 0
		for w := u.waiters; w.u != nil; w = w.u.waitNext[w.op] {
			c := w.u
			if n++; n > 2*p.rob.Len() {
				return fmt.Errorf("wait list of seq %d does not end", u.Seq)
			}
			if !c.InIQ || c.dep[w.op] != u.Seq {
				return fmt.Errorf("seq %d (InIQ %v, dep %v) is on the wait list of seq %d for operand %d",
					c.Seq, c.InIQ, c.dep, u.Seq, w.op)
			}
			l := links[c]
			l[w.op]++
			links[c] = l
		}
	}
	if inIQ != p.iqCount {
		return fmt.Errorf("IQ count %d, but %d ROB µ-ops are InIQ", p.iqCount, inIQ)
	}

	ready := map[*UOp]bool{}
	for i, u := range p.readyQ {
		if i > 0 && p.readyQ[i-1].Seq >= u.Seq {
			return fmt.Errorf("ready list out of age order: seq %d before seq %d", p.readyQ[i-1].Seq, u.Seq)
		}
		if !u.InIQ || u.Squashed || u.Issued {
			return fmt.Errorf("ready list holds seq %d (InIQ %v, squashed %v, issued %v)", u.Seq, u.InIQ, u.Squashed, u.Issued)
		}
		if u.readyAt > p.now {
			return fmt.Errorf("ready list holds seq %d, not due until cycle %d", u.Seq, u.readyAt)
		}
		ready[u] = true
	}
	heaped := map[*UOp]int64{}
	for _, e := range p.timed {
		if e.u.Seq != e.seq || !e.u.InIQ {
			continue // stale: dropped when it comes due
		}
		if _, dup := heaped[e.u]; dup {
			return fmt.Errorf("seq %d has two live heap entries", e.seq)
		}
		heaped[e.u] = e.at
	}

	for i := 0; i < p.rob.Len(); i++ {
		u := p.rob.At(i)
		if !u.InIQ {
			continue
		}
		l := links[u]
		if l[0] > 1 || l[1] > 1 || uint8(l[0]+l[1]) != u.pending {
			return fmt.Errorf("seq %d has %d pending operands but %v wait-list entries", u.Seq, u.pending, l)
		}
		at, inHeap := heaped[u]
		places := 0
		for _, in := range []bool{ready[u], inHeap, u.pending > 0} {
			if in {
				places++
			}
		}
		if places != 1 {
			return fmt.Errorf("seq %d is in %d places (ready %v, heap %v, pending %d)", u.Seq, places, ready[u], inHeap, u.pending)
		}
		available := true
		for _, seq := range u.dep {
			if at, prod := p.producerReady(seq); prod != nil || at > p.now {
				available = false
			}
		}
		if listed := ready[u] || (inHeap && at <= p.now); listed != available {
			return fmt.Errorf("seq %d: operands available %v, but listed ready %v", u.Seq, available, listed)
		}
	}

	if p.blockOpen {
		for _, u := range p.blockUOps {
			if u.Dispatched {
				return fmt.Errorf("seq %d dispatched before its fetch block closed", u.Seq)
			}
		}
	}
	return nil
}

// runChecked steps p cycle by cycle, in RunWarm's stage order, and
// checks the issue-queue invariants after every cycle. It returns once
// the pipeline drains, or false after maxCycles.
func runChecked(t testing.TB, p *Processor, maxCycles int64) bool {
	t.Helper()
	for p.now < maxCycles {
		p.commitStage()
		p.issueStage()
		p.dispatchStage()
		p.fetchStage()
		p.now++
		if err := p.checkIQ(); err != nil {
			t.Fatalf("cycle %d: %v", p.now, err)
		}
		if p.streamDone && p.pending.Len() == 0 && p.feQ.Len() == 0 && p.rob.Len() == 0 {
			return true
		}
	}
	return false
}

// TestIssueQueueInvariants runs six profiles under the baseline, EOLE
// with D-VTAGE, and a predictor that flushes on every eligible µ-op,
// checking the issue queue's bookkeeping on every cycle.
func TestIssueQueueInvariants(t *testing.T) {
	const n = 4000
	configs := []struct {
		name string
		mk   func() Config
	}{
		{"baseline", DefaultConfig},
		{"eole-dvtage", func() Config {
			return DefaultConfig().WithVP(NewInstVP(predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig()))).WithEOLE(4)
		}},
		{"conf-wrong", confWrongConfig},
	}
	for _, name := range []string{"gcc", "mcf", "swim", "bzip2", "milc", "gobmk"} {
		prof, ok := workload.ProfileByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		for _, c := range configs {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				p := New(c.mk(), workload.New(prof, n))
				if !runChecked(t, p, 40*n) {
					t.Fatalf("pipeline did not drain in %d cycles", 40*n)
				}
				if p.stats.Insts != n {
					t.Fatalf("committed %d of %d instructions", p.stats.Insts, n)
				}
			})
		}
	}
}

// fuzzStream decodes fuzz bytes into a short instruction stream, three
// bytes per instruction:
//
//	b0: bits 0-3 the class (0-7 ALU, Mul, Div, FP, FPMul, FPDiv, Load,
//	    Store; 8-9 conditional branch; 10 load-immediate; 11 Nop; 12-15
//	    Load), bits 4-5 the destination register, bit 6 a second ALU
//	    µ-op reading the first's result
//	b1: bits 0-1 and 2-4 the two source registers (4-7: none), bits
//	    5-7 the memory word of a load or store
//	b2: bit 0 branch direction, bits 1-2 the fuzzVP outcome (confident,
//	    correct), bits 3-6 the branch target
//
// Registers come from a pool of four and memory from eight words, so
// dependences, store-to-load forwarding, store-set waits and
// memory-order flushes are all frequent.
type fuzzStream struct {
	data []byte
	pc   uint64
	i    uint64
}

const fuzzBase = 0x40000

func (s *fuzzStream) Next(in *isa.Inst) bool {
	if len(s.data) < 3 {
		return false
	}
	b0, b1, b2 := s.data[0], s.data[1], s.data[2]
	s.data = s.data[3:]
	s.i++
	if s.pc == 0 {
		s.pc = fuzzBase
	}
	reg := func(v byte) isa.Reg {
		if v >= 4 {
			return isa.RegNone
		}
		return isa.Reg(1 + v)
	}
	*in = isa.Inst{PC: s.pc, Size: 4, NumUOps: 1}
	mo := &in.UOps[0]
	mo.Dest = reg((b0 >> 4) & 3)
	mo.Src = [2]isa.Reg{reg(b1 & 3), reg((b1 >> 2) & 7)}
	mo.Value = s.i * 0x9E3779B97F4A7C15
	// The fuzzVP reads its outcome bits from PrevValue.
	mo.PrevValue = uint64(b2>>1) & 3
	classes := [...]isa.Class{isa.ClassALU, isa.ClassMul, isa.ClassDiv, isa.ClassFP, isa.ClassFPMul, isa.ClassFPDiv, isa.ClassLoad, isa.ClassStore}
	switch k := b0 & 15; {
	case k < 8:
		mo.Class = classes[k]
	case k == 8 || k == 9:
		mo.Class = isa.ClassBranch
		mo.Dest = isa.RegNone
		in.Kind = isa.BranchCond
		in.Taken = b2&1 != 0
		in.Target = fuzzBase + uint64((b2>>3)&15)*4
	case k == 10:
		mo.Class = isa.ClassALU
		mo.IsLoadImm = true
		mo.Src = [2]isa.Reg{isa.RegNone, isa.RegNone}
	case k == 11:
		mo.Class = isa.ClassNop
		mo.Dest = isa.RegNone
	default:
		mo.Class = isa.ClassLoad
	}
	switch mo.Class {
	case isa.ClassLoad, isa.ClassStore:
		mo.Addr = 0x8000 + uint64(b1>>5)*8
		if mo.Class == isa.ClassStore {
			mo.Dest = isa.RegNone
		}
	}
	if b0&0x40 != 0 && in.Kind == isa.BranchNone && mo.Dest != isa.RegNone {
		in.NumUOps = 2
		in.UOps[1] = isa.MicroOp{
			Dest:  mo.Dest,
			Src:   [2]isa.Reg{mo.Dest, isa.RegNone},
			Class: isa.ClassALU,
			Value: mo.Value + 1,
		}
	}
	s.pc = in.NextPC()
	return true
}

// fuzzVP predicts every eligible µ-op, confidently when bit 0 of its
// PrevValue is set, correctly when bit 1 is.
type fuzzVP struct{ stats VPStats }

func (v *fuzzVP) Name() string { return "fuzz" }
func (v *fuzzVP) OnFetchBlock(_, _ uint64, _ *branch.History, uops []*UOp) {
	for _, u := range uops {
		if !u.Eligible {
			continue
		}
		u.Predicted = true
		u.PredConfident = u.PrevValue&1 != 0
		u.PredValue = u.Value
		if u.PrevValue&2 == 0 {
			u.PredValue = ^u.Value
		}
	}
}
func (v *fuzzVP) OnRetire(u *UOp) {
	if u.Eligible {
		v.stats.Eligible++
		if u.PredConfident {
			v.stats.Used++
		}
	}
}
func (v *fuzzVP) OnSquash(*UOp)          {}
func (v *fuzzVP) OnFlush(uint64, uint64) {}
func (v *fuzzVP) StorageBits() int       { return 0 }
func (v *fuzzVP) Stats() VPStats         { return v.stats }
func (v *fuzzVP) ResetStats()            { v.stats = VPStats{} }

// FuzzIssueQueue is the issue queue's liveness check: on any short µ-op
// stream, every instruction commits within a cycle bound proportional
// to the stream's length, and the bookkeeping invariants hold on every
// cycle. A lost wakeup, or an IQ entry never released, fails here in
// seconds instead of hanging a run.
func FuzzIssueQueue(f *testing.F) {
	// Hand-written seeds: a divide chain feeding stores and loads to one
	// word; loops of taken and not-taken branches; confident
	// predictions, right and wrong; unpipelined FP divides on two
	// registers; load-immediates and Nops between dependent loads. The
	// last one (a divide feeding a multiply, then two independent
	// divides) fails when woken µ-ops join the ready list out of age
	// order.
	f.Add([]byte{0x02, 0x00, 0x00, 0x07, 0x01, 0x00, 0x16, 0x1c, 0x00, 0x07, 0x05, 0x00, 0x26, 0x14, 0x00, 0x02, 0x01, 0x00})
	f.Add([]byte{0x00, 0x1c, 0x00, 0x08, 0x00, 0x01, 0x10, 0x10, 0x06, 0x08, 0x01, 0x00, 0x09, 0x04, 0x09, 0x40, 0x1c, 0x00})
	f.Add([]byte{0x40, 0x1c, 0x02, 0x50, 0x00, 0x06, 0x60, 0x01, 0x04, 0x41, 0x02, 0x06, 0x00, 0x03, 0x02, 0x70, 0x1c, 0x06})
	f.Add([]byte{0x05, 0x1c, 0x00, 0x15, 0x1c, 0x00, 0x05, 0x00, 0x00, 0x15, 0x01, 0x00, 0x04, 0x01, 0x00, 0x03, 0x1d, 0x00})
	f.Add([]byte{0x0a, 0x1c, 0x00, 0x0b, 0x1c, 0x00, 0x06, 0x20, 0x00, 0x16, 0x40, 0x00, 0x07, 0x21, 0x00, 0x0c, 0x20, 0x00})
	f.Add([]byte{0x02, 0x30, 0x30, 0x31, 0x30, 0x30, 0x32, 0x31, 0x30, 0x32, 0x31, 0x30})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxInsts = 200
		if len(data) > 3*maxInsts {
			data = data[:3*maxInsts]
		}
		n := uint64(len(data) / 3)
		bound := 1000 + 300*int64(n)
		for _, cfg := range []Config{DefaultConfig(), DefaultConfig().WithVP(&fuzzVP{}).WithEOLE(4)} {
			p := New(cfg, &fuzzStream{data: data})
			if !runChecked(t, p, bound) {
				t.Fatalf("%s: %d of %d instructions committed after %d cycles", cfg.Name, p.stats.Insts, n, bound)
			}
			if p.stats.Insts != n {
				t.Fatalf("%s: committed %d of %d instructions", cfg.Name, p.stats.Insts, n)
			}
		}
	})
}
