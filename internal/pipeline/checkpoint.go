package pipeline

import (
	"errors"
	"fmt"
	"reflect"
	"sort"

	"bebop/internal/branch"
	"bebop/internal/cache"
	"bebop/internal/memdep"
)

// Checkpoint is the aggregate microarchitectural state of a drained
// processor: everything that survives across instructions — predictors,
// caches, history — and nothing that lives inside a cycle (ROB, queues,
// in-flight µ-ops must be empty when one is taken). All fields are
// exported plain data (fixed-width integers, bools, strings, arrays,
// slices, structs, pointers and the registered VP payload) so the
// checkpoint side-file codec (internal/trace) can walk them by
// reflection.
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
	// The payload's concrete type must be registered by its package with
	// RegisterVPPayload.
	VPName string
	VP     any
}

// VPSnapshotter is the optional checkpoint interface of a VP
// implementation. SnapshotVP returns a payload of plain exported data
// whose concrete type the implementing package registered with
// RegisterVPPayload; RestoreVP accepts the same payload back.
// Implementations must refuse to snapshot while they hold in-flight
// (per-µ-op) state.
type VPSnapshotter interface {
	SnapshotVP() (any, error)
	RestoreVP(s any) error
}

// VPPayload is a registered VP snapshot payload: the concrete type a
// VPSnapshotter's SnapshotVP returns and the tag the checkpoint
// side-file stores in front of it.
type VPPayload struct {
	Tag  uint8
	Type reflect.Type
}

// vpPayloads is the payload registration table, filled by package init
// functions and kept sorted by tag.
var vpPayloads []VPPayload

// RegisterVPPayload registers the concrete payload type of a
// VPSnapshotter under tag, so the side-file codec can encode the
// Checkpoint.VP field. sample is any value of that type, typically a
// nil pointer; the type must be a pointer to a struct. Tags are part of
// the side-file format: never renumber or reuse one. Call it from an
// init function. It panics on tag 0 (reserved for "no payload"), on a
// tag or type registered twice, or on a type that is not a pointer to
// a struct: each is a programming error that must fail at start-up.
func RegisterVPPayload(tag uint8, sample any) {
	t := reflect.TypeOf(sample)
	if tag == 0 {
		panic("pipeline: VP payload tag 0 is reserved for an absent payload")
	}
	if t == nil || t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("pipeline: VP payload type %v is not a pointer to a struct", t))
	}
	for _, p := range vpPayloads {
		if p.Tag == tag || p.Type == t {
			panic(fmt.Sprintf("pipeline: VP payload %v (tag %d) collides with %v (tag %d)", t, tag, p.Type, p.Tag))
		}
	}
	vpPayloads = append(vpPayloads, VPPayload{Tag: tag, Type: t})
	sort.Slice(vpPayloads, func(i, j int) bool { return vpPayloads[i].Tag < vpPayloads[j].Tag })
}

// VPPayloads returns the registered payloads in tag order. The slice is
// shared: callers must not modify it.
func VPPayloads() []VPPayload { return vpPayloads }

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
		payload, err := vs.SnapshotVP()
		if err != nil {
			return nil, err
		}
		ck.VPName = p.cfg.VP.Name()
		ck.VP = payload
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
