package pipeline

import (
	"errors"
	"fmt"

	"bebop/internal/branch"
	"bebop/internal/cache"
	"bebop/internal/isa"
	"bebop/internal/predictor"
)

// Checkpoint is the state functional warming (Warm) trains: the global
// history, TAGE, BTB, RAS, the cache hierarchy, the value predictor's
// tables and the fetch-block occurrence Warm has open. Nothing else
// travels. Checkpoints are taken and restored only on a processor that
// has run no detailed cycle (errDetailed), and there every structure
// Warm leaves alone still holds its reset value: the pipeline queues,
// the store sets, MSHRs and DRAM bank/bus clocks (Warm quiesces both
// before it returns), and the value predictor's speculative window and
// update queue. No counter travels either:
// every counter Result reports, the caches' and the value predictor's
// included, is zeroed where the measured window starts, so a restored
// processor reports only what it counts after that boundary. All fields
// are exported plain data (fixed-width integers, bools, strings, arrays,
// slices, structs and pointers) so the checkpoint side-file codec
// (internal/trace) can walk them by reflection.
//
// A checkpoint represents *continuous functional warming from
// instruction 0* up to InstOffset. Warming is split-invariant — Warm(a),
// Snapshot, Restore, Warm(b) leaves the state Warm(a+b) leaves, wherever
// a falls — so restoring and warming or running detailed from there is
// equivalent to warming straight through, which TestWarmSplitInvariant
// and the checkpoint differential test pin.
type Checkpoint struct {
	// InstOffset is the number of dynamic instructions consumed from the
	// stream when the checkpoint was taken.
	InstOffset int64
	// ConfigName identifies the processor configuration the state was
	// trained under; restoring into a different configuration is refused
	// even when the geometry happens to match.
	ConfigName string

	Hist branch.HistorySnapshot
	TAGE *branch.TAGESnapshot
	BTB  *branch.BTBSnapshot
	RAS  *branch.RASSnapshot
	Mem  *cache.HierarchySnapshot

	// VP carries the value predictor's D-VTAGE tables when the
	// configuration has one that supports snapshotting (VPSnapshotter).
	VP *predictor.DVTAGESnapshot

	// WarmBlockOpen, WarmBlockPC and WarmUOps are the fetch-block
	// occurrence Warm has open, with the µ-ops it has accumulated for the
	// value predictor; the next Warm or RunWarm carries it on.
	WarmBlockOpen bool
	WarmBlockPC   uint64
	WarmUOps      []WarmUOp
}

// VPSnapshotter is the optional checkpoint interface of a VP
// implementation. RestoreVP accepts what SnapshotVP returns.
type VPSnapshotter interface {
	SnapshotVP() *predictor.DVTAGESnapshot
	RestoreVP(s *predictor.DVTAGESnapshot) error
}

// errDetailed is returned by Snapshot and Restore on a processor that
// has run a detailed cycle since New or Reset: from then on structures
// a Checkpoint does not carry may have left their reset values.
var errDetailed = errors.New("pipeline: checkpoints need a processor that has run no detailed cycle since New or Reset")

// Snapshot captures the state warming trains as a Checkpoint.
// instOffset is the stream position the caller has advanced to.
func (p *Processor) Snapshot(instOffset int64) (*Checkpoint, error) {
	if p.now != 0 {
		return nil, errDetailed
	}
	ck := &Checkpoint{
		InstOffset: instOffset,
		ConfigName: p.cfg.Name,
		Hist:       p.hist.Snapshot(),
		TAGE:       p.tage.Snapshot(),
		BTB:        p.btb.Snapshot(),
		RAS:        p.ras.Snapshot(),
		Mem:        p.mem.Snapshot(),

		WarmBlockOpen: p.warmingBlockOpen,
		WarmBlockPC:   p.warmingBlockPC,
		WarmUOps:      append([]WarmUOp(nil), p.warmingUOps...),
	}
	if p.cfg.VP != nil {
		vs, ok := p.cfg.VP.(VPSnapshotter)
		if !ok {
			return nil, fmt.Errorf("pipeline: value predictor %s does not support checkpoints", p.cfg.VP.Name())
		}
		ck.VP = vs.SnapshotVP()
	}
	return ck, nil
}

// Restore overwrites the state warming trains from a checkpoint taken
// under the same configuration name; geometry is additionally validated
// by every component restore.
func (p *Processor) Restore(ck *Checkpoint) error {
	if p.now != 0 {
		return errDetailed
	}
	if ck.ConfigName != p.cfg.Name {
		return fmt.Errorf("pipeline: checkpoint was taken under config %q, processor runs %q",
			ck.ConfigName, p.cfg.Name)
	}
	if ck.TAGE == nil || ck.BTB == nil || ck.RAS == nil || ck.Mem == nil {
		return fmt.Errorf("pipeline: checkpoint incomplete")
	}
	if !ck.WarmBlockOpen && len(ck.WarmUOps) > 0 {
		return fmt.Errorf("pipeline: checkpoint carries warming µ-ops but no open block")
	}
	// A taken branch ends an occurrence, so it holds at most one
	// instruction per byte of the block.
	if len(ck.WarmUOps) > isa.FetchBlockSize*isa.MaxUOpsPerInst {
		return fmt.Errorf("pipeline: checkpoint's open block carries %d µ-ops", len(ck.WarmUOps))
	}
	for _, u := range ck.WarmUOps {
		if isa.BlockPC(u.PC) != ck.WarmBlockPC {
			return fmt.Errorf("pipeline: warming µ-op at PC %#x lies outside the open block %#x", u.PC, ck.WarmBlockPC)
		}
	}
	if err := p.tage.Restore(ck.TAGE); err != nil {
		return err
	}
	if err := p.btb.Restore(ck.BTB); err != nil {
		return err
	}
	if err := p.ras.Restore(ck.RAS); err != nil {
		return err
	}
	if err := p.mem.Restore(ck.Mem); err != nil {
		return err
	}
	p.hist.Restore(ck.Hist)
	// Copied, not aliased: the checkpoint may be shared or reused.
	p.warmingBlockOpen, p.warmingBlockPC = ck.WarmBlockOpen, ck.WarmBlockPC
	p.warmingUOps = append(p.warmingUOps[:0], ck.WarmUOps...)
	if p.cfg.VP == nil {
		if ck.VP != nil {
			return fmt.Errorf("pipeline: checkpoint carries value predictor state but config %s has none", p.cfg.Name)
		}
		return nil
	}
	vs, ok := p.cfg.VP.(VPSnapshotter)
	if !ok {
		return fmt.Errorf("pipeline: value predictor %s does not support checkpoints", p.cfg.VP.Name())
	}
	if ck.VP == nil {
		return fmt.Errorf("pipeline: checkpoint carries no VP state but config %s has predictor %s",
			p.cfg.Name, p.cfg.VP.Name())
	}
	return vs.RestoreVP(ck.VP)
}
