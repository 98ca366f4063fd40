package pipeline

import (
	"errors"
	"fmt"

	"bebop/internal/branch"
	"bebop/internal/cache"
	"bebop/internal/predictor"
)

// Checkpoint is the state functional warming (Warm) trains: the global
// history, TAGE, BTB, RAS, the cache hierarchy and the value predictor's
// tables. Nothing else travels. Checkpoints are taken and restored only
// on a processor that has run no detailed cycle (errDetailed), and there
// every structure Warm leaves alone still holds its reset value: the
// pipeline queues, the store sets, MSHRs and DRAM bank/bus clocks (Warm
// quiesces both before it returns), and the value predictor's
// speculative window and update queue. No counter travels either:
// every counter Result reports, the caches' and the value predictor's
// included, is zeroed where the measured window starts, so a restored
// processor reports only what it counts after that boundary. All fields
// are exported plain data (fixed-width integers, bools, strings, arrays,
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

	// VP carries the value predictor's D-VTAGE tables when the
	// configuration has one that supports snapshotting (VPSnapshotter).
	VP *predictor.DVTAGESnapshot
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
		Hist:       p.hist.Checkpoint(),
		TAGE:       p.tage.Snapshot(),
		BTB:        p.btb.Snapshot(),
		RAS:        p.ras.Snapshot(),
		Mem:        p.mem.Snapshot(),
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
	p.hist.RestoreCheckpoint(ck.Hist)
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
