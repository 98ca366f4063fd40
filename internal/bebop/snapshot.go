package bebop

import (
	"fmt"

	"bebop/internal/pipeline"
	"bebop/internal/predictor"
	"bebop/internal/specwindow"
)

// Snapshot is the checkpoint form of a BlockVP: the D-VTAGE tables and
// the speculative window, plus the prediction counters. The FIFO update
// queue is deliberately absent — it holds in-flight per-µ-op state, and
// snapshots are only legal when the pipeline (and therefore the FIFO)
// has drained.
type Snapshot struct {
	DVT   *predictor.DVTAGESnapshot
	Win   *specwindow.Snapshot
	Stats pipeline.VPStats
}

func init() {
	// The aggregate pipeline.Checkpoint carries this payload in an `any`
	// field; the side-file codec finds its layout through the tag.
	pipeline.RegisterVPPayload(1, (*Snapshot)(nil))
}

// SnapshotVP implements pipeline.VPSnapshotter.
func (b *BlockVP) SnapshotVP() (any, error) {
	if b.fifo.Len() > 0 || b.reuseRec != nil {
		return nil, fmt.Errorf("bebop: cannot snapshot with %d in-flight prediction blocks", b.fifo.Len())
	}
	return &Snapshot{
		DVT:   b.dvt.Snapshot(),
		Win:   b.win.Snapshot(),
		Stats: b.stats,
	}, nil
}

// RestoreVP implements pipeline.VPSnapshotter.
func (b *BlockVP) RestoreVP(s any) error {
	snap, ok := s.(*Snapshot)
	if !ok {
		return fmt.Errorf("bebop: checkpoint payload is %T, want *bebop.Snapshot", s)
	}
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
