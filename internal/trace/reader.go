package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"bebop/internal/faultinject"
	"bebop/internal/isa"
)

// Reader replays a .bbt trace as an isa.Stream: a processor runs from
// it exactly as it runs from the live generator the trace was recorded
// from. Opening a Reader reads the header, the trailer and the frame
// index; each frame is then loaded with one ReadAt when the replay
// reaches it or SeekInst lands in it, into one buffer that open sizes
// to the largest frame, so replay allocates nothing after open and
// preserves the pipeline's allocation-free hot loop.
//
// Errors are sticky: Next returns false and Err reports what went
// wrong. A nil Err after exhaustion means the replay reached the end of
// the trace, or its limit, cleanly.
type Reader struct {
	src  io.ReaderAt
	file io.Closer // owned handle when built by OpenFile

	hdr      Header
	index    []frameIndexEntry
	indexOff uint64 // where the last frame ends

	pos  int64 // trace instruction number of the next instruction
	stop int64 // Next returns nothing at or past this instruction
	next int   // frame to load when the current one runs out

	frameRem int
	dec      instDecoder
	buf      []byte // every frame's payload in turn, sized at open to the largest

	// Telemetry accumulates locally (plain counters on the decode path)
	// and flushes to the process registry on Close, never per frame.
	framesRead   uint64
	payloadBytes uint64

	err error
}

// NewReader reads the header, the trailer and the frame index of the
// size-byte trace in src, and returns a Reader positioned at its first
// instruction. Every frame's span is checked against size before any
// frame is read.
func NewReader(src io.ReaderAt, size int64) (*Reader, error) {
	r := &Reader{src: src}
	if err := r.open(size); err != nil {
		return nil, err
	}
	r.stop = int64(r.hdr.Insts)
	return r, nil
}

// OpenFile opens a .bbt file through NewReader; Close releases the
// handle.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.file = f
	return r, nil
}

// Close publishes the Reader's replay counters and releases the file
// when the Reader owns one (OpenFile); Readers over caller-provided
// sources close nothing.
func (r *Reader) Close() error {
	if r.framesRead > 0 {
		mFrames.Add(r.framesRead)
		r.framesRead = 0
	}
	if r.payloadBytes > 0 {
		mPayloadBytes.Add(r.payloadBytes)
		r.payloadBytes = 0
	}
	if r.file == nil {
		return nil
	}
	err := r.file.Close()
	r.file = nil
	return err
}

// Header returns the trace identity and totals.
func (r *Reader) Header() Header { return r.hdr }

// Frames reports the frame count.
func (r *Reader) Frames() int { return len(r.index) }

// Err returns the sticky decode error, nil after a clean end of trace.
func (r *Reader) Err() error { return r.err }

// TotalInsts reports the trace's total instruction count. core's runs
// use it to refuse a warmup+measure budget the trace cannot cover,
// instead of silently reporting a cold, short run.
func (r *Reader) TotalInsts() int64 { return int64(r.hdr.Insts) }

// SetLimit makes Next stop before instruction n of the trace (n < 0:
// at the trace's end). SeekInst keeps the limit, so a replay opened for
// n instructions ends at instruction n wherever it was positioned, as
// a generator built for n instructions does. FileSource.Open sets it.
func (r *Reader) SetLimit(n int64) {
	r.stop = int64(r.hdr.Insts)
	if n >= 0 && n < r.stop {
		r.stop = n
	}
}

// Next implements isa.Stream. It is the replay hot read: one call per
// dynamic instruction, steady-state allocation-free.
//
//bebop:hotpath
func (r *Reader) Next(in *isa.Inst) bool {
	if r.err != nil || r.pos >= r.stop {
		return false
	}
	if r.frameRem == 0 && !r.loadFrame(r.next) {
		return false
	}
	if err := r.dec.decodeInst(in); err != nil {
		r.err = err
		return false
	}
	r.frameRem--
	if r.frameRem == 0 && r.dec.pos != len(r.dec.buf) {
		//bebop:allow hotalloc -- terminal corruption path: allocates once and the reader is dead afterwards
		r.err = formatErr("frame payload has %d trailing bytes", len(r.dec.buf)-r.dec.pos)
		return false
	}
	r.pos++
	return true
}

// loadFrame reads frame i with one ReadAt into the frame buffer and
// arms the decoder on it. It returns false on error.
func (r *Reader) loadFrame(i int) bool {
	if err := faultinject.Fire("trace.frame.decode"); err != nil {
		r.err = formatErr("frame decode: %v", err)
		return false
	}
	e := r.index[i]
	end := r.indexOff
	if i+1 < len(r.index) {
		end = r.index[i+1].offset
	}
	n := int(end - e.offset)
	b := r.buf[:n]
	if err := readFull(r.src, b, int64(e.offset)); err != nil {
		r.err = formatErr("frame %d: %v", i, err)
		return false
	}
	r.framesRead++
	r.payloadBytes += uint64(n)
	r.dec.reset(b)
	r.frameRem = int(e.instCount)
	r.next = i + 1
	return true
}

// SeekInst positions the Reader so the next instruction Next returns is
// instruction n (0-based) of the trace: it loads the frame holding n and
// decodes only the instructions before n in that frame. Seeking to or
// past the end leaves the Reader cleanly exhausted. The limit SetLimit
// set stays where it is.
func (r *Reader) SeekInst(n int64) error {
	if r.err != nil {
		return r.err
	}
	if n < 0 {
		return fmt.Errorf("trace: SeekInst(%d): negative instruction", n)
	}
	r.pos = n
	r.frameRem = 0
	if n >= int64(r.hdr.Insts) {
		return nil
	}
	i := sort.Search(len(r.index), func(i int) bool { return r.index[i].firstInst > uint64(n) }) - 1
	if !r.loadFrame(i) {
		return r.err
	}
	var skipped isa.Inst
	for k := r.index[i].firstInst; k < uint64(n); k++ {
		if err := r.dec.decodeInst(&skipped); err != nil {
			r.err = err
			return err
		}
		r.frameRem--
	}
	return nil
}

// open reads and checks the header, the trailer and the index of a
// size-byte trace.
func (r *Reader) open(size int64) error {
	if size < headerFixedLen+trailerLen {
		return formatErr("%d bytes cannot hold a header and a trailer", size)
	}
	// One read covers the fixed fields, the name length and the longest
	// name the format allows, bounded by where the trailer starts.
	h := make([]byte, min(size-trailerLen, headerFixedLen+binary.MaxVarintLen64+maxNameLen))
	if err := readFull(r.src, h, 0); err != nil {
		return formatErr("header: %v", err)
	}
	if string(h[:4]) != Magic {
		return formatErr("bad magic %q (want %q)", h[:4], Magic)
	}
	if v := binary.LittleEndian.Uint16(h[4:6]); v != Version {
		return formatErr("format version %d, this build reads only version %d: re-record the trace with `bebop-trace record`", v, Version)
	}
	r.hdr.Seed = binary.LittleEndian.Uint64(h[6:headerFixedLen])
	nameLen, n := binary.Uvarint(h[headerFixedLen:])
	if n <= 0 {
		return formatErr("header: truncated or overlong name length")
	}
	if nameLen > maxNameLen {
		return formatErr("header name of %d bytes exceeds the %d bound", nameLen, maxNameLen)
	}
	h = h[headerFixedLen+n:]
	if nameLen > uint64(len(h)) {
		return formatErr("header name of %d bytes runs into the trailer", nameLen)
	}
	r.hdr.Name = string(h[:nameLen])
	dataOff := uint64(headerFixedLen+n) + nameLen

	var tr [trailerLen]byte
	if err := readFull(r.src, tr[:], size-trailerLen); err != nil {
		return formatErr("trailer: %v", err)
	}
	if string(tr[8:]) != TrailerMagic {
		return formatErr("bad trailer magic %q (want %q)", tr[8:], TrailerMagic)
	}
	r.indexOff = binary.LittleEndian.Uint64(tr[:8])
	indexEnd := uint64(size - trailerLen)
	if r.indexOff < dataOff || r.indexOff >= indexEnd {
		return formatErr("index offset %d outside [%d, %d)", r.indexOff, dataOff, indexEnd)
	}
	idx := make([]byte, indexEnd-r.indexOff)
	if err := readFull(r.src, idx, int64(r.indexOff)); err != nil {
		return formatErr("index: %v", err)
	}
	return r.readIndex(idx, dataOff)
}

// readIndex decodes the index and checks that its frames tile
// [dataOff, indexOff) in instruction order and that its totals agree
// with them, then sizes the frame buffer to the largest frame.
func (r *Reader) readIndex(idx []byte, dataOff uint64) error {
	size := len(idx)
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(idx)
		if n <= 0 {
			return 0, fmt.Errorf("truncated or overlong uvarint at index byte %d", size-len(idx))
		}
		idx = idx[n:]
		return v, nil
	}
	numFrames, err := uvarint()
	if err != nil {
		return formatErr("index: %v", err)
	}
	// An entry takes at least three bytes, so the index allocated below
	// is bounded by the bytes actually read.
	if numFrames > uint64(len(idx))/3 {
		return formatErr("index declares %d frames in %d bytes", numFrames, len(idx))
	}
	r.index = make([]frameIndexEntry, numFrames)
	var prev frameIndexEntry
	var span uint64 // the largest frame's bytes
	for i := range r.index {
		var d [3]uint64 // firstInstΔ, offsetΔ, instCount
		for k := range d {
			if d[k], err = uvarint(); err != nil {
				return formatErr("index entry %d: %v", i, err)
			}
		}
		e := frameIndexEntry{firstInst: prev.firstInst + d[0], offset: prev.offset + d[1], instCount: d[2]}
		switch {
		case e.instCount == 0 || e.instCount > maxFrameInsts:
			return formatErr("index entry %d declares %d instructions", i, e.instCount)
		case e.firstInst != prev.firstInst+prev.instCount:
			return formatErr("frame %d starts at instruction %d, the frames before it hold %d",
				i, e.firstInst, prev.firstInst+prev.instCount)
		case i == 0 && e.offset != dataOff:
			return formatErr("first frame at byte %d does not follow the header (%d)", e.offset, dataOff)
		case i > 0 && (d[1] == 0 || d[1] > maxFrameBytes):
			return formatErr("frame %d spans %d bytes (bound %d)", i-1, d[1], maxFrameBytes)
		case e.offset >= r.indexOff:
			return formatErr("frame %d starts at byte %d, not before the index at %d", i, e.offset, r.indexOff)
		}
		if i > 0 {
			span = max(span, d[1])
		}
		r.index[i] = e
		prev = e
	}
	switch {
	case numFrames == 0 && r.indexOff != dataOff:
		return formatErr("%d bytes between the header and an empty index", r.indexOff-dataOff)
	case numFrames > 0 && r.indexOff-prev.offset > maxFrameBytes:
		return formatErr("frame %d spans %d bytes (bound %d)", numFrames-1, r.indexOff-prev.offset, maxFrameBytes)
	case numFrames > 0:
		span = max(span, r.indexOff-prev.offset)
	}
	totalInsts, err := uvarint()
	if err != nil {
		return formatErr("index totals: %v", err)
	}
	totalUOps, err := uvarint()
	if err != nil {
		return formatErr("index totals: %v", err)
	}
	switch {
	case totalInsts != prev.firstInst+prev.instCount:
		return formatErr("index totals %d instructions, its frames hold %d", totalInsts, prev.firstInst+prev.instCount)
	case totalUOps > totalInsts*isa.MaxUOpsPerInst:
		return formatErr("index totals %d µ-ops for %d instructions (max %d each)", totalUOps, totalInsts, isa.MaxUOpsPerInst)
	case len(idx) != 0:
		return formatErr("%d stray bytes after the index totals", len(idx))
	}
	r.hdr.Insts = totalInsts
	r.hdr.UOps = totalUOps
	r.buf = make([]byte, span)
	return nil
}
