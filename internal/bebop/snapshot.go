package bebop

import (
	"fmt"

	"bebop/internal/pipeline"
)

// SnapshotVP implements pipeline.VPSnapshotter.
func (b *BlockVP) SnapshotVP() (*pipeline.VPSnapshot, error) {
	if b.fifo.Len() > 0 || b.reuseRec != nil {
		return nil, fmt.Errorf("bebop: cannot snapshot with %d in-flight prediction blocks", b.fifo.Len())
	}
	return &pipeline.VPSnapshot{
		DVT:   b.dvt.Snapshot(),
		Win:   b.win.Snapshot(),
		Stats: b.stats,
	}, nil
}

// RestoreVP implements pipeline.VPSnapshotter.
func (b *BlockVP) RestoreVP(snap *pipeline.VPSnapshot) error {
	if b.fifo.Len() > 0 || b.reuseRec != nil {
		return fmt.Errorf("bebop: cannot restore over %d in-flight prediction blocks", b.fifo.Len())
	}
	if snap.DVT == nil || snap.Win == nil {
		return fmt.Errorf("bebop: checkpoint payload incomplete")
	}
	if err := b.dvt.Restore(snap.DVT); err != nil {
		return err
	}
	if err := b.win.Restore(snap.Win); err != nil {
		return err
	}
	b.stats = snap.Stats
	return nil
}
