package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"bebop/internal/faultinject"
	"bebop/internal/pipeline"
)

// CheckpointExt is the side-file extension; the full name also embeds
// the configuration, so one trace can carry checkpoints for several
// processor configurations side by side.
const CheckpointExt = ".ckpt"

// CheckpointFile is the checkpoint side-file for one (trace, processor
// configuration) pair, held in memory: what BuildCheckpoints produces
// and WriteCheckpoints stores, and what LoadCheckpoints reads in full.
// Points hold full microarchitectural snapshots taken during a single
// continuous functional-warming pass over the trace, sorted by
// instruction offset. Restoring a point and warming or running detailed
// from its offset is equivalent to warming straight through from
// instruction 0 — which is what makes the warmup cost amortizable
// across sampled-simulation requests, whatever spacing built the file.
//
// The file format lives in checkpoint_codec.go. A point stores each
// table dense or, when fewer than half its elements are non-zero, as a
// bitmap and its non-zero elements, so it grows with what warming has
// filled: over the 29 points of each of perfbench's six 150K-instruction
// traces, a point averages 182 KiB (36–324) under the baseline
// configuration and 201 KiB (45–344) under EOLE_4_60/Medium, about a
// third of its tables' dense 540 and 658 KiB. Sampled runs open it as
// a CheckpointSet instead, which reads only the points they restore.
type CheckpointFile struct {
	// TraceName and TraceInsts identify the trace the snapshots were
	// trained on; CheckpointSet.Validate refuses a side-file whose
	// identity does not match the opened trace.
	TraceName  string
	TraceInsts int64
	// ConfigName is the processor configuration the state belongs to.
	ConfigName string
	Points     []*pipeline.Checkpoint
}

// CheckpointSet is an opened side-file: its identity and point index,
// with every point left on disk until RestoreNearest asks for it. The
// set is safe for concurrent use; Close releases the file.
type CheckpointSet struct {
	// traceName, traceInsts and configName are the side-file's
	// identity, as in CheckpointFile.
	traceName  string
	traceInsts int64
	configName string

	path  string
	r     io.ReaderAt
	insts []int64 // each point's instruction offset, increasing
	offs  []int64 // each point's first byte, then the index's
}

// ErrBadPoint marks every error CheckpointSet.RestoreNearest returns:
// the point could not be read, decoded or restored, so the side-file is
// unusable and the fix is to rebuild it, not to retry.
var ErrBadPoint = errors.New("unusable side-file point")

// CheckpointPath names the side-file for a trace and configuration:
// "traces/gcc-10k.bbt" under config "EOLE_4_60/Medium" becomes
// "traces/gcc-10k.bbt.EOLE_4_60_Medium.ckpt". Configuration names may
// contain '/' (family/size), which cannot appear in a file name.
func CheckpointPath(tracePath, configName string) string {
	safe := strings.NewReplacer("/", "_", string(os.PathSeparator), "_").Replace(configName)
	return tracePath + "." + safe + CheckpointExt
}

// WriteCheckpoints streams the side-file to path via a temp file and
// rename, so a crashed build never leaves a truncated file a later run
// would trust. The file is readable by all, like the trace beside it.
func WriteCheckpoints(path string, cf *CheckpointFile) error {
	if err := cf.check(); err != nil {
		return fmt.Errorf("trace: write checkpoints: %w", err)
	}
	if err := faultinject.Fire("trace.checkpoint.write"); err != nil {
		return fmt.Errorf("trace: write checkpoints: %w", err)
	}
	// Same directory as the target: rename must not cross filesystems.
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bebop-ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := encodeCheckpoints(bufio.NewWriterSize(tmp, ckptBufSize), cf); err != nil {
		tmp.Close()
		return fmt.Errorf("trace: write checkpoints: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// OpenCheckpoints opens a side-file and reads and checks its header and
// index; no point is read until RestoreNearest restores it.
// Identity against a particular trace and configuration is the separate
// Validate step, so callers can report "no checkpoints" and "wrong
// checkpoints" differently.
func OpenCheckpoints(path string) (*CheckpointSet, error) {
	if err := faultinject.Fire("trace.checkpoint.read"); err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := readCheckpointSet(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: decode checkpoints: %w", path, err)
	}
	s.path = path
	return s, nil
}

// Close releases the side-file.
func (s *CheckpointSet) Close() error {
	if c, ok := s.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Validate checks the side-file belongs to the opened trace and the
// requested configuration. hdr is the trace's header.
func (s *CheckpointSet) Validate(hdr Header, configName string) error {
	if s.configName != configName {
		return fmt.Errorf("trace: checkpoints are for config %q, run uses %q", s.configName, configName)
	}
	if s.traceName != hdr.Name {
		return fmt.Errorf("trace: checkpoints are for trace %q, file is %q", s.traceName, hdr.Name)
	}
	if s.traceInsts != int64(hdr.Insts) {
		return fmt.Errorf("trace: checkpoints trained on %d instructions, trace has %d",
			s.traceInsts, hdr.Insts)
	}
	return nil
}

// FirstPoint returns the instruction offset of the set's first point;
// ok is false when the set holds none.
func (s *CheckpointSet) FirstPoint() (inst int64, ok bool) {
	if len(s.insts) == 0 {
		return 0, false
	}
	return s.insts[0], true
}

// pointBufs holds the buffers RestoreNearest reads points into, so a
// worker restoring interval after interval reuses one the previous read
// already sized.
var pointBufs = sync.Pool{New: func() any { return new([]byte) }}

// RestoreNearest reads the point with the largest instruction offset
// ≤ inst, restores it into p and returns that offset; ok is false, and
// p untouched, when every point lies past inst. No other point is read.
// Every error wraps ErrBadPoint, and after one p must be Reset before it
// is used again, as after a refused Processor.Restore.
func (s *CheckpointSet) RestoreNearest(p *pipeline.Processor, inst int64) (at int64, ok bool, err error) {
	i := sort.Search(len(s.insts), func(i int) bool { return s.insts[i] > inst }) - 1
	if i < 0 {
		return 0, false, nil
	}
	buf := pointBufs.Get().(*[]byte)
	defer pointBufs.Put(buf)
	state, err := s.readPoint(i, buf)
	if err == nil {
		err = p.Restore(&pipeline.Checkpoint{InstOffset: s.insts[i], ConfigName: s.configName, State: state})
	}
	if err != nil {
		return 0, false, s.pointErr(i, err)
	}
	return s.insts[i], true, nil
}

func (s *CheckpointSet) pointErr(i int, err error) error {
	return fmt.Errorf("trace: %s: point %d: %w: %w", s.path, i, ErrBadPoint, err)
}

// LoadCheckpoints opens a side-file and reads every point, through the
// reader RestoreNearest uses for one.
func LoadCheckpoints(path string) (*CheckpointFile, error) {
	s, err := OpenCheckpoints(path)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.readAll()
}

// readAll reads every point of the set into a CheckpointFile, each
// point's state copied out of the read buffer.
func (s *CheckpointSet) readAll() (*CheckpointFile, error) {
	cf := &CheckpointFile{
		TraceName:  s.traceName,
		TraceInsts: s.traceInsts,
		ConfigName: s.configName,
		Points:     make([]*pipeline.Checkpoint, len(s.insts)),
	}
	var buf []byte
	for i := range cf.Points {
		state, err := s.readPoint(i, &buf)
		if err != nil {
			return nil, s.pointErr(i, err)
		}
		cf.Points[i] = &pipeline.Checkpoint{
			InstOffset: s.insts[i], ConfigName: s.configName, State: append([]byte(nil), state...),
		}
	}
	return cf, nil
}

// check enforces the structural invariants WriteCheckpoints guarantees
// and OpenCheckpoints and the point reader check again.
func (cf *CheckpointFile) check() error {
	if cf.ConfigName == "" || cf.TraceName == "" {
		return fmt.Errorf("checkpoint file missing trace or config identity")
	}
	prev := int64(-1)
	for i, ck := range cf.Points {
		if ck == nil {
			return fmt.Errorf("checkpoint %d is nil", i)
		}
		if ck.ConfigName != cf.ConfigName {
			return fmt.Errorf("checkpoint %d was taken under config %q, file declares %q",
				i, ck.ConfigName, cf.ConfigName)
		}
		if ck.InstOffset <= prev {
			return fmt.Errorf("checkpoint offsets not strictly increasing at %d (%d after %d)",
				i, ck.InstOffset, prev)
		}
		if ck.InstOffset > cf.TraceInsts {
			return fmt.Errorf("checkpoint %d at instruction %d past the trace end (%d)",
				i, ck.InstOffset, cf.TraceInsts)
		}
		prev = ck.InstOffset
	}
	return nil
}

// Nearest returns the checkpoint with the largest InstOffset ≤ inst,
// or nil when every point lies past inst.
func (cf *CheckpointFile) Nearest(inst int64) *pipeline.Checkpoint {
	i := sort.Search(len(cf.Points), func(i int) bool { return cf.Points[i].InstOffset > inst })
	if i == 0 {
		return nil
	}
	return cf.Points[i-1]
}

// RestoreNearest restores Nearest(inst) into p and returns its offset;
// ok is false, and p untouched, when every point lies past inst.
func (cf *CheckpointFile) RestoreNearest(p *pipeline.Processor, inst int64) (at int64, ok bool, err error) {
	ck := cf.Nearest(inst)
	if ck == nil {
		return 0, false, nil
	}
	if err := p.Restore(ck); err != nil {
		return 0, false, err
	}
	return ck.InstOffset, true, nil
}
