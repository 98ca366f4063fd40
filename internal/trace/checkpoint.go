package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bebop/internal/engine"
	"bebop/internal/faultinject"
	"bebop/internal/pipeline"
)

// CheckpointExt is the side-file extension; the full name also embeds
// the configuration, so one trace can carry checkpoints for several
// processor configurations side by side.
const CheckpointExt = ".ckpt"

// CheckpointFile is the on-disk checkpoint side-file for one
// (trace, processor configuration) pair. Points hold full
// microarchitectural snapshots taken during a single continuous
// functional-warming pass over the trace, each at a frame boundary
// (Checkpoint.InstOffset equals some frame's first instruction), sorted
// by instruction offset. Restoring a point and running detailed from
// its offset is equivalent to warming straight through from
// instruction 0 — which is what makes the warmup cost amortizable
// across sampled-simulation requests.
//
// The file format lives in checkpoint_codec.go. It is fixed-width, so a
// side-file is about as large as the state it restores: roughly 550 KB
// per point for the baseline configuration and 680 KB for
// EOLE_4_60/Medium.
type CheckpointFile struct {
	// Version is the side-file format version, stamped by
	// WriteCheckpoints and LoadCheckpoints.
	Version int
	// TraceName and TraceInsts identify the trace the snapshots were
	// trained on; Validate refuses a side-file whose identity does not
	// match the opened trace.
	TraceName  string
	TraceInsts int64
	// ConfigName is the processor configuration the state belongs to.
	ConfigName string
	Points     []*pipeline.Checkpoint
}

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
// would trust. The format version is stamped onto cf here; callers only
// fill the identity and the points.
// IO failures (temp-file creation, write, rename) are classified
// engine.Transient — a full disk or racing cleanup may clear; a
// structurally invalid file or an unencodable snapshot never will.
func WriteCheckpoints(path string, cf *CheckpointFile) error {
	cf.Version = checkpointVersion
	if err := cf.check(); err != nil {
		return fmt.Errorf("trace: write checkpoints: %w", err)
	}
	fp, err := checkpointLayout()
	if err != nil {
		return fmt.Errorf("trace: write checkpoints: %w", err)
	}
	if err := faultinject.Fire("trace.checkpoint.write"); err != nil {
		return engine.Transient(fmt.Errorf("trace: write checkpoints: %w", err))
	}
	// Same directory as the target: rename must not cross filesystems.
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bebop-ckpt-*")
	if err != nil {
		return engine.Transient(err)
	}
	defer os.Remove(tmp.Name())
	e := ckptEncoder{w: bufio.NewWriterSize(tmp, ckptBufSize)}
	if err := e.encode(cf, fp); err != nil {
		tmp.Close()
		return fmt.Errorf("trace: encode checkpoints: %w", err)
	}
	if err := e.w.Flush(); err != nil {
		tmp.Close()
		return engine.Transient(fmt.Errorf("trace: write checkpoints: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return engine.Transient(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return engine.Transient(err)
	}
	return nil
}

// LoadCheckpoints decodes and structurally validates a side-file.
// Identity against a particular trace and configuration is the separate
// Validate step, so callers can report "no checkpoints" and "wrong
// checkpoints" differently.
// Open and Stat failures are classified engine.Transient (NFS blips,
// racing writers); decode and validation failures are not — a corrupt,
// truncated, old-format or mismatched file stays that way, and the
// caller's rebuild path is the fix, not a retry.
func LoadCheckpoints(path string) (*CheckpointFile, error) {
	if err := faultinject.Fire("trace.checkpoint.read"); err != nil {
		return nil, fmt.Errorf("trace: load %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err
		}
		return nil, engine.Transient(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, engine.Transient(err)
	}
	cf, err := readCheckpoints(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return cf, nil
}

// readCheckpoints decodes a side-file of size bytes from r and checks
// its structure. Every length in the file is checked against size
// before anything is allocated, so the input bounds the allocation.
func readCheckpoints(r io.Reader, size int64) (*CheckpointFile, error) {
	fp, err := checkpointLayout()
	if err != nil {
		return nil, err
	}
	d := ckptDecoder{r: bufio.NewReaderSize(r, int(min(size, ckptBufSize))), left: size}
	cf, err := d.decode(fp)
	if err != nil {
		return nil, fmt.Errorf("decode checkpoints: %w", err)
	}
	if err := cf.check(); err != nil {
		return nil, err
	}
	return cf, nil
}

// check enforces the structural invariants shared by write and load.
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

// Validate checks the side-file belongs to the opened trace and the
// requested configuration. hdr is the trace's header (totals recovered
// from the index for seekable sources).
func (cf *CheckpointFile) Validate(hdr Header, configName string) error {
	if cf.ConfigName != configName {
		return fmt.Errorf("trace: checkpoints are for config %q, run uses %q", cf.ConfigName, configName)
	}
	if cf.TraceName != hdr.Name {
		return fmt.Errorf("trace: checkpoints are for trace %q, file is %q", cf.TraceName, hdr.Name)
	}
	if cf.TraceInsts != int64(hdr.Insts) {
		return fmt.Errorf("trace: checkpoints trained on %d instructions, trace has %d",
			cf.TraceInsts, hdr.Insts)
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

// FrameStart returns the first instruction of the last frame starting
// at or before instruction n — the offset a checkpoint for target n
// should be taken at, so a later SeekInst to the checkpoint lands on a
// frame boundary and decodes nothing it throws away. Requires the frame
// index (seekable source); returns 0, false otherwise.
func (r *Reader) FrameStart(n int64) (int64, bool) {
	if !r.hasIndex || len(r.index) == 0 || n < 0 {
		return 0, false
	}
	lo, hi := 0, len(r.index)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.index[mid].firstInst <= uint64(n) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return int64(r.index[lo].firstInst), true
}
