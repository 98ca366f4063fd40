package pipeline

import (
	"bytes"
	"errors"
	"fmt"

	"bebop/internal/isa"
	"bebop/internal/util"
)

// Checkpoint is the state functional warming (Warm) trains: the global
// history, TAGE, BTB, RAS, the cache hierarchy, the value predictor's
// tables and the fetch-block occurrence Warm has open. Nothing else
// travels. Checkpoints are taken and restored only on a processor that
// has run no detailed cycle since New, Reset or Rearm (errDetailed),
// and there every structure Warm leaves alone still holds its reset
// value: the pipeline queues, the store sets, MSHRs and DRAM bank/bus
// clocks (Warm quiesces both before it returns), and the value
// predictor's speculative window and update queue. No counter travels
// either: every counter Result reports, the caches' and the value
// predictor's included, is zeroed where the measured window starts, so
// a restored processor reports only what it counts after that boundary.
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
	// State is the trained state in util's state encoding, as Snapshot
	// appends it: the history, TAGE, BTB, RAS, the cache hierarchy, a
	// presence byte followed by the value predictor's state, and the
	// open fetch block with the µ-ops it has accumulated for the value
	// predictor.
	State []byte
}

// VPSnapshotter is the optional checkpoint interface of a VP
// implementation: LoadState decodes what AppendState appended. A
// checkpoint implies that nothing is in flight, so LoadState also
// empties whatever speculative state a detailed run left (a speculative
// window, an update queue): Processor.Rearm leaves it to LoadState.
type VPSnapshotter interface {
	AppendState(b []byte) []byte
	LoadState(r *util.StateReader) error
}

// maxWarmUOps bounds the µ-ops of the block Warm has open: a taken
// branch ends an occurrence, so it holds at most one instruction per
// byte of the block.
const maxWarmUOps = isa.FetchBlockSize * isa.MaxUOpsPerInst

// errDetailed is returned by Snapshot and Restore on a processor that
// has run a detailed cycle since New, Reset or Rearm: from then on
// structures a Checkpoint does not carry may have left their reset
// values.
var errDetailed = errors.New("pipeline: checkpoints need a processor that has run no detailed cycle since New, Reset or Rearm")

// snapshotter returns the configuration's value predictor as a
// VPSnapshotter, nil when there is none, or an error when it cannot
// take part in checkpoints.
func (p *Processor) snapshotter() (VPSnapshotter, error) {
	if p.cfg.VP == nil {
		return nil, nil
	}
	vs, ok := p.cfg.VP.(VPSnapshotter)
	if !ok {
		return nil, fmt.Errorf("pipeline: value predictor %s does not support checkpoints", p.cfg.VP.Name())
	}
	return vs, nil
}

// Snapshot captures the state warming trains as a Checkpoint of its
// own. instOffset is the stream position the caller has advanced to.
func (p *Processor) Snapshot(instOffset int64) (*Checkpoint, error) {
	ck, err := p.SnapshotView(instOffset)
	if err != nil {
		return nil, err
	}
	ck.State = bytes.Clone(ck.State)
	return &ck, nil
}

// SnapshotView is Snapshot without the copy: the returned State is a
// view of the processor's state buffer, valid until the processor
// encodes or reads another point into it (SnapshotView, PointBuf). A
// build that hands each point on before taking the next uses it.
func (p *Processor) SnapshotView(instOffset int64) (Checkpoint, error) {
	if p.now != 0 {
		return Checkpoint{}, errDetailed
	}
	vs, err := p.snapshotter()
	if err != nil {
		return Checkpoint{}, err
	}
	b := p.hist.AppendState(p.stateBuf[:0])
	b = p.tage.AppendState(b)
	b = p.btb.AppendState(b)
	b = p.ras.AppendState(b)
	b = p.mem.AppendState(b)
	b = util.AppendBool(b, vs != nil)
	if vs != nil {
		b = vs.AppendState(b)
	}
	b = util.AppendBool(b, p.warmingBlockOpen)
	b = util.AppendUint64(b, p.warmingBlockPC)
	b = util.AppendLen(b, len(p.warmingUOps))
	for i := range p.warmingUOps {
		u := &p.warmingUOps[i]
		b = util.AppendUint64(b, u.PC)
		b = util.AppendUint8(b, uint8(u.UopIdx))
		b = util.AppendUint8(b, u.Boundary)
		b = util.AppendBool(b, u.Eligible)
		b = util.AppendUint64(b, u.Value)
		b = util.AppendUint64(b, u.PrevValue)
		b = util.AppendBool(b, u.HasPrev)
	}
	p.stateBuf = b
	return Checkpoint{InstOffset: instOffset, ConfigName: p.cfg.Name, State: b}, nil
}

// PointBuf returns the processor's state buffer, at least n bytes long,
// for a side-file reader to read a point into and hand to Restore,
// which keeps no reference to it. A worker restoring interval after
// interval thus reads every point into the one buffer; a reader that
// asks for its largest point grows it once.
func (p *Processor) PointBuf(n int) []byte {
	if cap(p.stateBuf) < n {
		p.stateBuf = make([]byte, n)
	}
	return p.stateBuf[:n]
}

// Restore decodes a checkpoint taken under the same configuration name
// straight into the processor's tables; every component checks its own
// geometry, and every byte of the state must be consumed. It overwrites
// every table a checkpoint carries, so after Rearm it is the reset of
// those tables. Restore keeps no reference to ck.State. A refused
// checkpoint may leave the tables partly overwritten, so after an error
// the processor must be Reset before it is used again.
func (p *Processor) Restore(ck *Checkpoint) error {
	if p.now != 0 {
		return errDetailed
	}
	if ck.ConfigName != p.cfg.Name {
		return fmt.Errorf("pipeline: checkpoint was taken under config %q, processor runs %q",
			ck.ConfigName, p.cfg.Name)
	}
	vs, err := p.snapshotter()
	if err != nil {
		return err
	}
	r := &p.stateRd
	r.Reset(ck.State)
	defer r.Reset(nil)
	for _, load := range [...]func(*util.StateReader) error{p.hist.LoadState, p.tage.LoadState, p.btb.LoadState, p.ras.LoadState, p.mem.LoadState} {
		if err := load(r); err != nil {
			return err
		}
	}
	switch hasVP := r.Bool(); {
	case r.Err() != nil:
		return fmt.Errorf("pipeline: value predictor presence: %w", r.Err())
	case hasVP && vs == nil:
		return fmt.Errorf("pipeline: checkpoint carries value predictor state but config %s has none", p.cfg.Name)
	case !hasVP && vs != nil:
		return fmt.Errorf("pipeline: checkpoint carries no VP state but config %s has predictor %s",
			p.cfg.Name, p.cfg.VP.Name())
	case hasVP:
		if err := vs.LoadState(r); err != nil {
			return err
		}
	}
	if err := p.loadWarmingBlock(r); err != nil {
		return err
	}
	if n := r.Left(); n != 0 {
		return fmt.Errorf("pipeline: %d bytes after the checkpoint's state", n)
	}
	return nil
}

// loadWarmingBlock decodes the fetch-block occurrence Warm had open,
// refusing one warming could never have left.
func (p *Processor) loadWarmingBlock(r *util.StateReader) error {
	p.warmingBlockOpen, p.warmingBlockPC = r.Bool(), r.Uint64()
	n := r.Uint64()
	switch {
	case r.Err() != nil:
		return fmt.Errorf("pipeline: open block state: %w", r.Err())
	case !p.warmingBlockOpen && n > 0:
		return fmt.Errorf("pipeline: checkpoint carries warming µ-ops but no open block")
	case n > maxWarmUOps:
		return fmt.Errorf("pipeline: checkpoint's open block carries %d µ-ops", n)
	}
	p.warmingUOps = p.warmingUOps[:0]
	for range n {
		u := WarmUOp{PC: r.Uint64(), UopIdx: int8(r.Uint8()), Boundary: r.Uint8(), Eligible: r.Bool(),
			Value: r.Uint64(), PrevValue: r.Uint64(), HasPrev: r.Bool()}
		if err := r.Err(); err != nil {
			return fmt.Errorf("pipeline: open block state: %w", err)
		}
		if isa.BlockPC(u.PC) != p.warmingBlockPC {
			return fmt.Errorf("pipeline: warming µ-op at PC %#x lies outside the open block %#x", u.PC, p.warmingBlockPC)
		}
		p.warmingUOps = append(p.warmingUOps, u)
	}
	return nil
}
