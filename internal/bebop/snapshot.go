package bebop

import "bebop/internal/predictor"

// SnapshotVP implements pipeline.VPSnapshotter. The D-VTAGE tables are
// the only BeBoP state functional warming trains (WarmFetchBlock): the
// speculative window, the FIFO update queue and the counters change only
// in detailed runs, and checkpoints are taken before any.
func (b *BlockVP) SnapshotVP() *predictor.DVTAGESnapshot { return b.dvt.Snapshot() }

// RestoreVP implements pipeline.VPSnapshotter.
func (b *BlockVP) RestoreVP(s *predictor.DVTAGESnapshot) error { return b.dvt.Restore(s) }
