package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bebop/internal/faultinject"
	"bebop/internal/util"
)

// Side-file layout, format version 6, in util's state encoding
// (little-endian fixed-width integers, u64-length-prefixed strings):
//
//	File   := Header | count × Point | Index | indexOffset u64
//	Header := magic "BBCk" | version u16 | traceName str
//	          | traceInsts i64 | configName str | count u64
//	Point  := instOffset i64 | configName str | state str
//	Index  := count × (instOffset i64 | byteOffset u64)
//
// A point's state is pipeline.Checkpoint.State, the bytes each
// component appended. Every table in it is a count, a form byte and
// its elements, dense or masked (a bitmap of its non-zero elements,
// then those alone) as its contents pick. The index gives each point's
// instruction offset and the file offset its encoding starts at; a
// point ends where the next one (or the index) starts. The last 8 bytes
// locate the index, as the .bbt trailer does, so opening a side-file
// reads the header and the index only, and each point is read when it
// is restored.
//
// checkpointVersion pins the state encoding as well as this layout: a
// side-file holds what warming trained when it was built, so a change to
// warming or to any component's AppendState must bump it, and the older
// side-files are then refused at open and rebuilt.
// TestCheckpointStatePinned fails until it is bumped.
const (
	checkpointMagic   = "BBCk"
	checkpointVersion = 6
	// ckptPrefix is the fixed-width start of the header: magic and
	// version.
	ckptPrefix int64 = 4 + 2
	// ckptIndexEntry is the size of one index entry.
	ckptIndexEntry = 16
	// ckptMinPoint is the fewest bytes a point encodes to: its offset
	// and the lengths of its two strings.
	ckptMinPoint = 3 * 8
	// ckptBufSize sizes the encoder's bufio buffer.
	ckptBufSize = 64 << 10
)

// errTruncated reports a side-file that ends before its layout does.
var errTruncated = errors.New("unexpected end of file")

// encodeCheckpoints writes the whole side-file to w. A write error
// sticks in the bufio.Writer, which turns every later write into a
// no-op and returns the error from Flush, so only Flush is checked.
func encodeCheckpoints(w *bufio.Writer, cf *CheckpointFile) error {
	b := append([]byte(checkpointMagic), 0, 0)
	binary.LittleEndian.PutUint16(b[4:], checkpointVersion)
	b = util.AppendString(b, cf.TraceName)
	b = util.AppendUint64(b, uint64(cf.TraceInsts))
	b = util.AppendString(b, cf.ConfigName)
	b = util.AppendLen(b, len(cf.Points))
	_, _ = w.Write(b) // sticky, see above
	n := int64(len(b))
	index := make([]byte, 0, ckptIndexEntry*len(cf.Points)+8)
	for _, ck := range cf.Points {
		index = util.AppendUint64(index, uint64(ck.InstOffset))
		index = util.AppendUint64(index, uint64(n))
		b = util.AppendUint64(b[:0], uint64(ck.InstOffset))
		b = util.AppendString(b, ck.ConfigName)
		b = util.AppendLen(b, len(ck.State))
		_, _ = w.Write(b)
		_, _ = w.Write(ck.State)
		n += int64(len(b) + len(ck.State))
	}
	_, _ = w.Write(util.AppendUint64(index, uint64(n)))
	return w.Flush()
}

// readFull fills b from r at off. A read that ends early means the
// file is shorter than its trailer and index say.
func readFull(r io.ReaderAt, b []byte, off int64) error {
	n, err := r.ReadAt(b, off)
	switch {
	case n == len(b):
		return nil
	case err == nil || err == io.EOF || err == io.ErrUnexpectedEOF:
		return errTruncated
	}
	return err
}

// readCheckpointSet reads and checks the header and the index of a
// side-file of size bytes, and nothing else: each point is read when it
// is restored.
func readCheckpointSet(r io.ReaderAt, size int64) (*CheckpointSet, error) {
	if size < ckptPrefix+8 {
		return nil, errTruncated
	}
	b := make([]byte, 8)
	if err := readFull(r, b[:ckptPrefix], 0); err != nil {
		return nil, err
	}
	if string(b[:4]) != checkpointMagic {
		return nil, fmt.Errorf("bad magic %q (want %q)", b[:4], checkpointMagic)
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != checkpointVersion {
		return nil, fmt.Errorf("format version %d (want %d)", v, checkpointVersion)
	}
	if err := readFull(r, b, size-8); err != nil {
		return nil, err
	}
	index := binary.LittleEndian.Uint64(b)
	if index < uint64(ckptPrefix) || index > uint64(size-8) || (uint64(size-8)-index)%ckptIndexEntry != 0 {
		return nil, fmt.Errorf("index at byte %d does not fit a %d-byte file", index, size)
	}
	ib := make([]byte, uint64(size-8)-index)
	if err := readFull(r, ib, int64(index)); err != nil {
		return nil, err
	}
	n := len(ib) / ckptIndexEntry
	s := &CheckpointSet{r: r, insts: make([]int64, n), offs: make([]int64, n+1)}
	for i := range n {
		s.insts[i] = int64(binary.LittleEndian.Uint64(ib[i*ckptIndexEntry:]))
		s.offs[i] = int64(binary.LittleEndian.Uint64(ib[i*ckptIndexEntry+8:]))
	}
	s.offs[n] = int64(index)
	if s.offs[0] < ckptPrefix || s.offs[0] > s.offs[n] {
		return nil, fmt.Errorf("first point at byte %d, outside the file", s.offs[0])
	}
	if err := s.readHeader(s.offs[0] - ckptPrefix); err != nil {
		return nil, err
	}
	prev := int64(-1)
	for i, inst := range s.insts {
		if inst <= prev {
			return nil, fmt.Errorf("checkpoint offsets not strictly increasing at %d (%d after %d)", i, inst, prev)
		}
		if inst > s.traceInsts {
			return nil, fmt.Errorf("checkpoint %d at instruction %d past the trace end (%d)", i, inst, s.traceInsts)
		}
		if end := s.offs[i+1]; end < s.offs[i] || end-s.offs[i] < ckptMinPoint {
			return nil, fmt.Errorf("checkpoint %d spans bytes %d to %d, too few for a point", i, s.offs[i], end)
		}
		prev = inst
	}
	return s, nil
}

// readHeader decodes the n header bytes after the fixed prefix: the
// identity and a point count, which must match the index.
func (s *CheckpointSet) readHeader(n int64) error {
	b := make([]byte, n)
	if err := readFull(s.r, b, ckptPrefix); err != nil {
		return err
	}
	r := util.NewStateReader(b)
	s.traceName = string(r.Bytes())
	s.traceInsts = int64(r.Uint64())
	s.configName = string(r.Bytes())
	count := r.Uint64()
	switch {
	case r.Err() != nil:
		return r.Err()
	case count != uint64(len(s.insts)):
		return fmt.Errorf("header declares %d points, the index holds %d", count, len(s.insts))
	case r.Left() != 0:
		return fmt.Errorf("%d stray bytes between the header and the first point", r.Left())
	case s.configName == "" || s.traceName == "":
		return fmt.Errorf("checkpoint file missing trace or config identity")
	}
	return nil
}

// readPoint reads point i into *buf, which it grows as needed, and
// returns the point's state, which aliases *buf. The point must fill
// its span exactly and agree with the index and the header.
func (s *CheckpointSet) readPoint(i int, buf *[]byte) ([]byte, error) {
	if err := faultinject.Fire("trace.checkpoint.point"); err != nil {
		return nil, err
	}
	n := int(s.offs[i+1] - s.offs[i])
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if err := readFull(s.r, b, s.offs[i]); err != nil {
		return nil, err
	}
	r := util.NewStateReader(b)
	inst, name, state := int64(r.Uint64()), r.Bytes(), r.Bytes()
	switch {
	case r.Err() != nil:
		return nil, r.Err()
	case r.Left() != 0:
		return nil, fmt.Errorf("%d trailing bytes", r.Left())
	case inst != s.insts[i]:
		return nil, fmt.Errorf("restores instruction %d, the index says %d", inst, s.insts[i])
	case string(name) != s.configName:
		return nil, fmt.Errorf("taken under config %q, file declares %q", name, s.configName)
	}
	return state, nil
}
