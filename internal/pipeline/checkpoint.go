package pipeline

import (
	"errors"
	"fmt"

	"bebop/internal/branch"
	"bebop/internal/cache"
	"bebop/internal/memdep"
	"bebop/internal/predictor"
	"bebop/internal/specwindow"
)

// Checkpoint is the aggregate microarchitectural state of a drained
// processor: everything that survives across instructions — predictors,
// caches, history — and nothing that lives inside a cycle (ROB, queues,
// in-flight µ-ops must be empty when one is taken). All fields are
// exported plain data (fixed-width integers, bools, strings, arrays,
// slices, structs and pointers) so the checkpoint side-file codec
// (internal/trace) can walk them by reflection.
//
// A checkpoint represents *continuous functional warming from
// instruction 0* up to InstOffset: restoring it and running detailed
// from there is equivalent to warming the same processor straight
// through, which is what the checkpoint differential test pins.
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
	SSet *memdep.Snapshot

	// VPName and VP carry the value predictor state when the
	// configuration has one that supports snapshotting (VPSnapshotter).
	VPName string
	VP     *VPSnapshot
}

// VPSnapshot is the checkpoint form of the block-based value predictor
// (bebop.BlockVP): the D-VTAGE tables and the speculative window, plus
// the prediction counters. The FIFO update queue is deliberately
// absent — it holds in-flight per-µ-op state, and snapshots are only
// legal when the pipeline (and therefore the FIFO) has drained.
type VPSnapshot struct {
	DVT   *predictor.DVTAGESnapshot
	Win   *specwindow.Snapshot
	Stats VPStats
}

// VPSnapshotter is the optional checkpoint interface of a VP
// implementation. RestoreVP accepts what SnapshotVP returns.
// Implementations must refuse to snapshot while they hold in-flight
// (per-µ-op) state.
type VPSnapshotter interface {
	SnapshotVP() (*VPSnapshot, error)
	RestoreVP(s *VPSnapshot) error
}

// errNotDrained is returned by Snapshot while µ-ops are in flight.
var errNotDrained = errors.New("pipeline: snapshot requires a drained pipeline (no in-flight µ-ops)")

// Snapshot captures the processor's long-lived state as a Checkpoint.
// instOffset is the stream position the caller has advanced to. The
// pipeline must be drained: checkpoints are taken between fast-forward/
// warming phases, never mid-detailed-run.
func (p *Processor) Snapshot(instOffset int64) (*Checkpoint, error) {
	if p.rob.Len() > 0 || p.feQ.Len() > 0 || p.pending.Len() > 0 || p.blockOpen || p.warmingBlockOpen {
		return nil, errNotDrained
	}
	ck := &Checkpoint{
		InstOffset: instOffset,
		ConfigName: p.cfg.Name,
		Hist:       p.hist.Checkpoint(),
		TAGE:       p.tage.Snapshot(),
		BTB:        p.btb.Snapshot(),
		RAS:        p.ras.Snapshot(),
		Mem:        p.mem.Snapshot(),
		SSet:       p.sset.Snapshot(),
	}
	if p.cfg.VP != nil {
		vs, ok := p.cfg.VP.(VPSnapshotter)
		if !ok {
			return nil, fmt.Errorf("pipeline: value predictor %s does not support checkpoints", p.cfg.VP.Name())
		}
		snap, err := vs.SnapshotVP()
		if err != nil {
			return nil, err
		}
		ck.VPName = p.cfg.VP.Name()
		ck.VP = snap
	}
	return ck, nil
}

// Restore overwrites the processor's long-lived state from a checkpoint.
// The processor must be freshly Reset (or otherwise drained) under the
// same configuration name the checkpoint was taken with; geometry is
// additionally validated by every component restore.
func (p *Processor) Restore(ck *Checkpoint) error {
	if p.rob.Len() > 0 || p.feQ.Len() > 0 || p.pending.Len() > 0 || p.blockOpen {
		return errNotDrained
	}
	if ck.ConfigName != p.cfg.Name {
		return fmt.Errorf("pipeline: checkpoint was taken under config %q, processor runs %q",
			ck.ConfigName, p.cfg.Name)
	}
	if ck.TAGE == nil || ck.BTB == nil || ck.RAS == nil || ck.Mem == nil || ck.SSet == nil {
		return fmt.Errorf("pipeline: checkpoint incomplete")
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
	if err := p.sset.Restore(ck.SSet); err != nil {
		return err
	}
	p.hist.RestoreCheckpoint(ck.Hist)
	if p.cfg.VP != nil {
		vs, ok := p.cfg.VP.(VPSnapshotter)
		if !ok {
			return fmt.Errorf("pipeline: value predictor %s does not support checkpoints", p.cfg.VP.Name())
		}
		if ck.VP == nil {
			return fmt.Errorf("pipeline: checkpoint carries no VP state but config %s has predictor %s",
				p.cfg.Name, p.cfg.VP.Name())
		}
		if ck.VPName != p.cfg.VP.Name() {
			return fmt.Errorf("pipeline: checkpoint VP state is for %s, processor runs %s",
				ck.VPName, p.cfg.VP.Name())
		}
		if err := vs.RestoreVP(ck.VP); err != nil {
			return err
		}
	} else if ck.VP != nil {
		return fmt.Errorf("pipeline: checkpoint carries %s state but config %s has no value predictor",
			ck.VPName, p.cfg.Name)
	}
	return nil
}
