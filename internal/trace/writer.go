package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"bebop/internal/isa"
)

// WriterOptions configures a trace recording.
type WriterOptions struct {
	// Name and Seed identify the source workload in the header.
	Name string
	Seed uint64
	// FrameInsts is the number of instructions per frame
	// (0 = DefaultFrameInsts).
	FrameInsts int
}

// Writer serializes an instruction stream into the .bbt format on any
// io.Writer. It streams: the header goes out at NewWriter, each frame's
// payload as the frame fills, and the index and trailer on Close.
type Writer struct {
	dst   io.Writer
	opts  WriterOptions
	off   uint64 // bytes written so far
	insts uint64
	uops  uint64

	st       deltaState
	frameIns int    // instructions in the open frame
	raw      []byte // open frame payload, then the index staging buffer
	index    []frameIndexEntry

	closed bool
	err    error
}

// NewWriter writes the header and returns a Writer. The error sticks:
// after any failure every method returns it.
func NewWriter(dst io.Writer, opts WriterOptions) (*Writer, error) {
	if opts.FrameInsts <= 0 {
		opts.FrameInsts = DefaultFrameInsts
	}
	if opts.FrameInsts > maxFrameInsts {
		return nil, fmt.Errorf("trace: FrameInsts %d exceeds the format bound %d", opts.FrameInsts, maxFrameInsts)
	}
	if len(opts.Name) > maxNameLen {
		return nil, fmt.Errorf("trace: workload name longer than %d bytes", maxNameLen)
	}
	w := &Writer{dst: dst, opts: opts}
	hdr := make([]byte, 0, headerFixedLen+binary.MaxVarintLen64+len(opts.Name))
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, opts.Seed)
	hdr = binary.AppendUvarint(hdr, uint64(len(opts.Name)))
	hdr = append(hdr, opts.Name...)
	if err := w.write(hdr); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Writer) write(b []byte) error {
	if w.err != nil {
		return w.err
	}
	n, err := w.dst.Write(b)
	w.off += uint64(n)
	if err != nil {
		w.err = fmt.Errorf("trace: write: %w", err)
	}
	return w.err
}

// WriteInst appends one instruction to the trace.
func (w *Writer) WriteInst(in *isa.Inst) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("trace: WriteInst after Close")
	}
	if in.NumUOps < 0 || in.NumUOps > isa.MaxUOpsPerInst {
		return fmt.Errorf("trace: instruction with %d µ-ops (max %d)", in.NumUOps, isa.MaxUOpsPerInst)
	}
	if in.Size < 1 || in.Size > isa.MaxInstBytes {
		return fmt.Errorf("trace: instruction size %d outside 1..%d", in.Size, isa.MaxInstBytes)
	}
	// Close the frame early if the next instruction could push the
	// payload past the reader's maxFrameBytes bound: a verbose workload
	// at a large -frame must never produce a file our own Reader
	// rejects.
	if w.frameIns > 0 && len(w.raw)+maxInstEncoding > maxFrameBytes {
		if err := w.flushFrame(); err != nil {
			return err
		}
	}
	if w.frameIns == 0 {
		w.st.reset()
		w.index = append(w.index, frameIndexEntry{firstInst: w.insts, offset: w.off})
	}
	w.raw = appendInst(w.raw, in, &w.st)
	w.frameIns++
	w.insts++
	w.uops += uint64(in.NumUOps)
	if w.frameIns >= w.opts.FrameInsts {
		return w.flushFrame()
	}
	return nil
}

// flushFrame writes the open frame's payload.
func (w *Writer) flushFrame() error {
	if w.frameIns == 0 || w.err != nil {
		return w.err
	}
	if err := w.write(w.raw); err != nil {
		return err
	}
	w.index[len(w.index)-1].instCount = uint64(w.frameIns)
	w.raw = w.raw[:0]
	w.frameIns = 0
	return nil
}

// Close flushes the open frame and writes the index and trailer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if err := w.flushFrame(); err != nil {
		return err
	}
	indexOff := w.off
	buf := binary.AppendUvarint(w.raw[:0], uint64(len(w.index)))
	var prev frameIndexEntry
	for _, e := range w.index {
		buf = binary.AppendUvarint(buf, e.firstInst-prev.firstInst)
		buf = binary.AppendUvarint(buf, e.offset-prev.offset)
		buf = binary.AppendUvarint(buf, e.instCount)
		prev = e
	}
	buf = binary.AppendUvarint(buf, w.insts)
	buf = binary.AppendUvarint(buf, w.uops)
	buf = binary.LittleEndian.AppendUint64(buf, indexOff)
	buf = append(buf, TrailerMagic...)
	return w.write(buf)
}

// Insts and UOps report the totals recorded so far.
func (w *Writer) Insts() uint64 { return w.insts }

// UOps reports the total µ-ops recorded so far.
func (w *Writer) UOps() uint64 { return w.uops }

// Record drains stream into dst, which may be any io.Writer, and closes
// the Writer, returning the recorded instruction and µ-op totals. A
// source that fails mid-stream (a corrupt trace being re-recorded) is
// an error: without the check a truncated recording would be
// structurally valid and the loss undetectable downstream.
func Record(dst io.Writer, stream isa.Stream, opts WriterOptions) (insts, uops uint64, err error) {
	w, err := NewWriter(dst, opts)
	if err != nil {
		return 0, 0, err
	}
	var in isa.Inst
	for stream.Next(&in) {
		if err := w.WriteInst(&in); err != nil {
			return w.Insts(), w.UOps(), err
		}
	}
	if es, ok := stream.(interface{ Err() error }); ok && es.Err() != nil {
		return w.Insts(), w.UOps(), fmt.Errorf("trace: source stream failed after %d instructions: %w", w.Insts(), es.Err())
	}
	if err := w.Close(); err != nil {
		return w.Insts(), w.UOps(), err
	}
	return w.Insts(), w.UOps(), nil
}
