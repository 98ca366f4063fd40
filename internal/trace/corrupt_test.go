package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bebop/internal/isa"
	"bebop/internal/workload"
)

// mkTrace records a small gcc slice for corruption to chew on.
func mkTrace(t testing.TB, insts int64, opts WriterOptions) []byte {
	t.Helper()
	prof, _ := workload.ProfileByName("gcc")
	var buf bytes.Buffer
	opts.Name = "gcc"
	opts.Seed = prof.Seed
	if _, _, err := Record(&buf, workload.New(prof, insts), opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openBytes opens an in-memory trace.
func openBytes(data []byte) (*Reader, error) {
	return NewReader(bytes.NewReader(data), int64(len(data)))
}

// drain consumes every instruction the reader will yield and returns
// the sticky error.
func drain(r *Reader) error {
	var in isa.Inst
	for r.Next(&in) {
	}
	return r.Err()
}

// mustRefuse requires an ErrFormat, at open or during replay.
func mustRefuse(t *testing.T, data []byte, what string) error {
	t.Helper()
	r, err := openBytes(data)
	if err == nil {
		err = drain(r)
	}
	if err == nil {
		t.Fatalf("%s: corrupt input accepted", what)
	}
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("%s: error %v is not ErrFormat", what, err)
	}
	return err
}

func TestBadMagic(t *testing.T) {
	data := mkTrace(t, 500, WriterOptions{})
	data[0] ^= 0xFF
	mustRefuse(t, data, "bad magic")
}

func TestWrongVersion(t *testing.T) {
	data := mkTrace(t, 500, WriterOptions{})
	binary.LittleEndian.PutUint16(data[4:6], Version+7)
	mustRefuse(t, data, "wrong version")
}

// TestTruncated cuts the trace at every structurally interesting point:
// inside the fixed header, inside the name, inside a frame, inside the
// index and inside the trailer. Every cut must surface an error, never
// a panic and never a silent short replay.
func TestTruncated(t *testing.T) {
	data := mkTrace(t, 2000, WriterOptions{FrameInsts: 256})
	for _, cut := range []int{0, 3, headerFixedLen - 1, headerFixedLen + 1,
		headerFixedLen + 40, len(data) / 2, len(data) - trailerLen - 1,
		len(data) - trailerLen, len(data) - 1} {
		mustRefuse(t, data[:cut], fmt.Sprintf("cut at byte %d", cut))
	}
}

// corruptFile assembles a complete file by hand (header, frames, index,
// trailer) so tests can inject structurally valid but semantically
// corrupt content.
type corruptFile struct {
	buf   bytes.Buffer
	index []frameIndexEntry
	// insts and uops are the index totals; addFrame advances insts.
	insts, uops uint64
}

func newCorruptFile(t *testing.T) *corruptFile {
	t.Helper()
	c := &corruptFile{}
	// NewWriter emits exactly the header; the Writer itself is dropped.
	if _, err := NewWriter(&c.buf, WriterOptions{Name: "corrupt"}); err != nil {
		t.Fatal(err)
	}
	return c
}

// addFrame appends a frame declaring instCount instructions.
func (c *corruptFile) addFrame(instCount uint64, payload []byte) {
	c.index = append(c.index, frameIndexEntry{firstInst: c.insts, offset: uint64(c.buf.Len()), instCount: instCount})
	c.insts += instCount
	c.buf.Write(payload)
}

// bytes returns the frames with the index and trailer appended.
func (c *corruptFile) bytes() []byte {
	data := bytes.Clone(c.buf.Bytes())
	indexOff := uint64(len(data))
	data = binary.AppendUvarint(data, uint64(len(c.index)))
	var prev frameIndexEntry
	for _, e := range c.index {
		data = binary.AppendUvarint(data, e.firstInst-prev.firstInst)
		data = binary.AppendUvarint(data, e.offset-prev.offset)
		data = binary.AppendUvarint(data, e.instCount)
		prev = e
	}
	data = binary.AppendUvarint(data, c.insts)
	data = binary.AppendUvarint(data, c.uops)
	data = binary.LittleEndian.AppendUint64(data, indexOff)
	return append(data, TrailerMagic...)
}

// oneInst is the payload of one µ-op-free instruction.
func oneInst() []byte {
	var payload []byte
	payload = binary.AppendVarint(payload, 0x400) // pc delta
	payload = binary.AppendUvarint(payload, 4)    // size
	return append(payload, 0)                     // ctrl: kind none, 0 µ-ops
}

// TestHeaderCountMismatch: the totals Header reports come from the
// index and must agree with its frames.
func TestHeaderCountMismatch(t *testing.T) {
	c := newCorruptFile(t)
	c.addFrame(1, oneInst())
	c.insts = 99999
	mustRefuse(t, c.bytes(), "index totals past the frames")
}

// TestUOpCountExceedsMax covers both declarations of a µ-op count: the
// index total and the per-instruction ctrl field. A trace declaring
// more µ-ops than insts×MaxUOpsPerInst, or an instruction whose ctrl
// bits decode past isa.MaxUOpsPerInst, must error.
func TestUOpCountExceedsMax(t *testing.T) {
	// Index total: 1 instruction, 100 µ-ops.
	c := newCorruptFile(t)
	c.addFrame(1, oneInst())
	c.uops = 100
	mustRefuse(t, c.bytes(), "index µ-op overflow")

	// Per-instruction ctrl field: numUOps bits say 5 > MaxUOpsPerInst(4).
	payload := oneInst()
	payload[len(payload)-1] = 5 << 4
	c = newCorruptFile(t)
	c.addFrame(1, payload)
	err := mustRefuse(t, c.bytes(), "per-inst µ-op overflow")
	if want := "exceeds isa.MaxUOpsPerInst"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the µ-op bound", err)
	}
}

// TestFrameTrailingGarbage: payload bytes beyond the declared
// instructions are corruption, not padding.
func TestFrameTrailingGarbage(t *testing.T) {
	c := newCorruptFile(t)
	c.addFrame(1, append(oneInst(), 0xAA, 0xBB, 0xCC))
	mustRefuse(t, c.bytes(), "trailing frame garbage")
}

// TestLyingIndexOffsets: an index whose frames do not tile the bytes
// between the header and the index, or do not count instructions in
// order, is refused at open, before any frame is read.
func TestLyingIndexOffsets(t *testing.T) {
	honest := newCorruptFile(t)
	honest.addFrame(1, oneInst())
	honest.addFrame(1, oneInst())
	r, err := openBytes(honest.bytes())
	if err == nil {
		err = drain(r)
	}
	if err != nil {
		t.Fatalf("the hand-built file without lies: %v", err)
	}
	for _, tc := range []struct {
		name string
		lie  func(c *corruptFile)
	}{
		{"first frame inside the header", func(c *corruptFile) { c.index[0].offset-- }},
		{"empty frame", func(c *corruptFile) { c.index[1].offset = c.index[0].offset }},
		{"frame before its predecessor", func(c *corruptFile) { c.index[1].offset = c.index[0].offset - 1 }},
		{"frame past the index", func(c *corruptFile) { c.index[1].offset = uint64(c.buf.Len()) + 5 }},
		{"instruction gap", func(c *corruptFile) { c.index[1].firstInst++; c.insts++ }},
		{"empty frame count", func(c *corruptFile) { c.index[1].instCount = 0; c.insts-- }},
	} {
		c := newCorruptFile(t)
		c.addFrame(1, oneInst())
		c.addFrame(1, oneInst())
		tc.lie(c)
		mustRefuse(t, c.bytes(), tc.name)
	}

	// The trailer's index offset must lie between the header and the
	// trailer.
	data := mkTrace(t, 500, WriterOptions{})
	for _, off := range []uint64{0, headerFixedLen, uint64(len(data)), 1 << 62} {
		bad := bytes.Clone(data)
		binary.LittleEndian.PutUint64(bad[len(bad)-trailerLen:], off)
		mustRefuse(t, bad, fmt.Sprintf("index offset %d", off))
	}
}

// TestWriterRejectsInvalidInst: the writer refuses instructions the
// reader would refuse, so corrupt traces cannot be produced by API use.
func TestWriterRejectsInvalidInst(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteInst(&isa.Inst{PC: 4, Size: 4, NumUOps: isa.MaxUOpsPerInst + 1}); err == nil {
		t.Fatal("µ-op overflow accepted by the writer")
	}
	if err := w.WriteInst(&isa.Inst{PC: 4, Size: isa.MaxInstBytes + 1, NumUOps: 1}); err == nil {
		t.Fatal("oversized instruction accepted by the writer")
	}
}

// FuzzReader throws arbitrary bytes at the reader: nothing may panic,
// and for the seed corpus of valid traces the replay must complete
// cleanly. Each input is replayed from the start and again from a seek
// into its middle. Run with `go test -fuzz=FuzzReader ./internal/trace`.
func FuzzReader(f *testing.F) {
	valid := mkTrace(f, 300, WriterOptions{FrameInsts: 64})
	oneFrame := mkTrace(f, 300, WriterOptions{})
	f.Add(valid)
	f.Add(oneFrame)
	truncated := valid[:len(valid)/2]
	f.Add(truncated)
	magic := append([]byte{}, valid...)
	magic[0] ^= 0xFF
	f.Add(magic)
	flipped := append([]byte{}, oneFrame...)
	flipped[headerFixedLen+20] ^= 0x55
	f.Add(flipped)
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := openBytes(data)
		if err != nil {
			return
		}
		r.SetLimit(10_000) // bound fuzz work, not correctness
		var in isa.Inst
		for r.Next(&in) {
			if in.NumUOps > isa.MaxUOpsPerInst {
				t.Fatalf("reader produced %d µ-ops", in.NumUOps)
			}
		}
		if r.SeekInst(int64(r.Header().Insts/2)) != nil {
			return
		}
		for r.Next(&in) {
			if in.NumUOps > isa.MaxUOpsPerInst {
				t.Fatalf("reader produced %d µ-ops after a seek", in.NumUOps)
			}
		}
	})
}

// TestZeroFrameIndexWithTotals: an index declaring no frames but
// nonzero totals must be rejected at open — it previously let SeekInst
// index into an empty frame list.
func TestZeroFrameIndexWithTotals(t *testing.T) {
	// A legitimately empty trace: numFrames=0, totals 0/0.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{Name: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// The empty trace itself opens cleanly and seeks to a clean EOF.
	r, err := openBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SeekInst(2); err != nil {
		t.Fatal(err)
	}
	var in isa.Inst
	if r.Next(&in) || r.Err() != nil {
		t.Fatalf("empty trace after seek: err %v", r.Err())
	}

	// Patch the index's totalInsts uvarint (index = numFrames,
	// totalInsts, totalUOps — one byte each here) to lie about length.
	indexOff := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])
	data[indexOff+1] = 5
	mustRefuse(t, data, "frameless index with totals")
}

// TestWriterCapsFrameBytes: with a huge -frame and maximally verbose
// instructions, the writer must close frames early rather than emit a
// frame its own Reader rejects against maxFrameBytes.
func TestWriterCapsFrameBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("moves ~150MB of worst-case payload")
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{
		Name: "fat", FrameInsts: maxFrameInsts,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Worst-case encodings: random PCs (long pc deltas) and four load
	// µ-ops per instruction with incompressible value/address/prev
	// deltas (~148 B/inst), so ~74 MB of raw payload in one declared
	// frame — past the 64 MB reader bound without the early flush.
	const insts = 500_000
	var in isa.Inst
	in.Size = 8
	in.NumUOps = isa.MaxUOpsPerInst
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := 0; i < insts; i++ {
		in.PC = next()
		for j := 0; j < in.NumUOps; j++ {
			u := &in.UOps[j]
			u.Class = isa.ClassLoad
			u.Dest = isa.Reg(j)
			u.Src = [2]isa.Reg{isa.RegNone, isa.RegNone}
			u.Addr = next()
			u.Value = next()
			u.HasPrev = true
			u.PrevValue = next()
		}
		if err := w.WriteInst(&in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := openBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("writer produced a trace its reader rejects: %v", err)
	}
	if r.Frames() < 2 {
		t.Fatalf("oversized frame was not split (got %d frames)", r.Frames())
	}
	var got isa.Inst
	count := 0
	for r.Next(&got) {
		count++
	}
	if r.Err() != nil || count != insts {
		t.Fatalf("replay of split frames: %d/%d insts, err %v", count, insts, r.Err())
	}
}

// errSourceFailed is what failingStream reports.
var errSourceFailed = errors.New("source failed")

// failingStream yields n instructions of a generator, then fails.
type failingStream struct {
	isa.Stream
	n int
}

func (f *failingStream) Next(in *isa.Inst) bool {
	if f.n == 0 {
		return false
	}
	f.n--
	return f.Stream.Next(in)
}

func (f *failingStream) Err() error {
	if f.n == 0 {
		return errSourceFailed
	}
	return nil
}

// TestRecordPropagatesSourceError: recording from a fallible stream
// that dies mid-way must fail, not emit a silently truncated trace.
func TestRecordPropagatesSourceError(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	src := &failingStream{Stream: workload.New(prof, 2000), n: 1000}
	var buf bytes.Buffer
	if _, _, err := Record(&buf, src, WriterOptions{Name: "rerecord"}); !errors.Is(err, errSourceFailed) {
		t.Fatalf("failed source: Record returned %v", err)
	}
}
