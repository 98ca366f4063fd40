package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"bebop/internal/faultinject"
	"bebop/internal/isa"
)

// Reader streams a .bbt trace back as an isa.Stream: a processor runs
// from it exactly as it runs from the live generator the trace was
// recorded from. The reader is steady-state allocation-free — frame,
// payload and decompression buffers are reused across frames, and Reset
// rearms the same Reader over a new byte source without reallocating
// them — so replay preserves the pipeline's allocation-free hot loop.
//
// When the source is an io.ReadSeeker the frame index is loaded at open
// time, which validates the trailer, recovers the totals for headers
// written to non-seekable destinations, and enables SeekInst (fast skip
// to a warmup boundary). A plain io.Reader is consumed strictly
// sequentially and never touches the index.
//
// Errors are sticky: Next returns false and Err reports what went
// wrong. A nil Err after exhaustion means the trace ended cleanly at
// the sentinel.
type Reader struct {
	src  io.Reader
	rs   io.ReadSeeker // non-nil when src can seek
	file io.Closer     // owned handle when built by OpenFile

	hdr      Header
	nameBuf  []byte
	idxBuf   []byte // raw frame index, read in one call at open
	index    []frameIndexEntry
	hasIndex bool

	off      uint64 // bytes consumed from src (tracks seeks)
	dataOff  uint64 // offset of the first frame
	limit    int64  // max instructions to return, <0 = unlimited
	returned int64

	frameRem int
	dec      instDecoder
	payBuf   []byte
	rawBuf   []byte
	payRd    bytes.Reader
	fr       io.ReadCloser // flate decompressor, reused via flate.Resetter
	b1       [1]byte       // single-byte read buffer; a local would escape per call

	// Telemetry accumulates locally (plain counters on the decode path)
	// and flushes to the process registry at end-of-trace, Close and
	// Reset — never per frame.
	framesRead   uint64
	payloadBytes uint64

	eof bool
	err error
}

// NewReader parses the header (and, for seekable sources, the trailer
// and frame index) and returns a Reader positioned at the first
// instruction.
func NewReader(src io.Reader) (*Reader, error) {
	r := &Reader{limit: -1}
	if err := r.Reset(src); err != nil {
		return nil, err
	}
	return r, nil
}

// OpenFile opens a .bbt file; Close releases the handle.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.file = f
	return r, nil
}

// Reset rearms the Reader over a new byte source, reusing every buffer
// the previous trace grew. The limit is cleared, and a file handle
// owned by OpenFile is closed — do not Reset onto the handle the
// Reader already owns.
func (r *Reader) Reset(src io.Reader) error {
	r.flushTelemetry()
	if r.file != nil {
		r.file.Close()
		r.file = nil
	}
	r.src = src
	r.rs, _ = src.(io.ReadSeeker)
	r.off = 0
	r.limit = -1
	r.returned = 0
	r.frameRem = 0
	r.eof = false
	r.err = nil
	r.hasIndex = false
	r.index = r.index[:0]
	if err := r.readHeader(); err != nil {
		r.err = err
		return err
	}
	r.dataOff = r.off
	if r.rs != nil {
		if err := r.loadIndex(); err != nil {
			r.err = err
			return err
		}
	}
	return nil
}

// Close releases the underlying file when the Reader owns one
// (OpenFile); Readers over caller-provided sources close nothing.
func (r *Reader) Close() error {
	r.flushTelemetry()
	if r.file == nil {
		return nil
	}
	err := r.file.Close()
	r.file = nil
	return err
}

// flushTelemetry publishes locally accumulated replay counters.
func (r *Reader) flushTelemetry() {
	if r.framesRead > 0 {
		mFrames.Add(r.framesRead)
		r.framesRead = 0
	}
	if r.payloadBytes > 0 {
		mPayloadBytes.Add(r.payloadBytes)
		r.payloadBytes = 0
	}
}

// Header returns the trace identity. Totals are zero only for traces
// written to a non-seekable destination and read from one too.
func (r *Reader) Header() Header { return r.hdr }

// Frames reports the frame count, or 0 when no index is available.
func (r *Reader) Frames() int { return len(r.index) }

// Err returns the sticky decode error, nil after a clean end of trace.
func (r *Reader) Err() error { return r.err }

// TotalInsts reports the trace's total instruction count when known:
// always for seekable sources (the index carries the totals), and for
// streams whose header counts were patched at record time.
// core's runs use it to refuse a warmup+measure budget the trace
// cannot cover, instead of silently reporting a cold, short run.
func (r *Reader) TotalInsts() (int64, bool) {
	if r.hasIndex || r.hdr.Insts != 0 || r.hdr.UOps != 0 {
		return int64(r.hdr.Insts), true
	}
	return 0, false
}

// SetLimit caps how many further instructions Next will produce
// (n < 0 = unlimited). FileSource.Open uses it to align a replay with
// the warmup+measure budget of a synthetic run.
func (r *Reader) SetLimit(n int64) {
	r.limit = n
	r.returned = 0
}

// Next implements isa.Stream. It is the replay hot read: one call per
// dynamic instruction, steady-state allocation-free.
//
//bebop:hotpath
func (r *Reader) Next(in *isa.Inst) bool {
	if r.err != nil || r.eof {
		return false
	}
	if r.limit >= 0 && r.returned >= r.limit {
		return false
	}
	if r.frameRem == 0 {
		if !r.nextFrame() {
			return false
		}
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
	r.returned++
	return true
}

// nextFrame reads and decodes the next frame header and payload into
// the reusable buffers. It returns false at the sentinel (clean end) or
// on error.
func (r *Reader) nextFrame() bool {
	if ferr := faultinject.Fire("trace.frame.decode"); ferr != nil {
		r.err = formatErr("frame decode: %v", ferr)
		return false
	}
	instCount, err := r.readUvarint()
	if err != nil {
		r.err = formatErr("frame header: %v", err)
		return false
	}
	if instCount == 0 {
		r.eof = true
		r.flushTelemetry()
		return false
	}
	if instCount > maxFrameInsts {
		r.err = formatErr("frame declares %d instructions (bound %d)", instCount, maxFrameInsts)
		return false
	}
	uopCount, err := r.readUvarint()
	if err != nil {
		r.err = formatErr("frame header: %v", err)
		return false
	}
	if uopCount > instCount*isa.MaxUOpsPerInst {
		r.err = formatErr("frame declares %d µ-ops for %d instructions (max %d each)",
			uopCount, instCount, isa.MaxUOpsPerInst)
		return false
	}
	rawLen, err := r.readUvarint()
	if err != nil {
		r.err = formatErr("frame header: %v", err)
		return false
	}
	payLen, err := r.readUvarint()
	if err != nil {
		r.err = formatErr("frame header: %v", err)
		return false
	}
	if rawLen > maxFrameBytes || payLen > maxFrameBytes {
		r.err = formatErr("frame of %d/%d bytes exceeds the %d bound", payLen, rawLen, maxFrameBytes)
		return false
	}
	if !r.hdr.Compressed && payLen != rawLen {
		r.err = formatErr("uncompressed frame with payload %d != raw %d", payLen, rawLen)
		return false
	}

	var rerr error
	r.payBuf, rerr = appendRead(r.payBuf[:0], r.src, payLen)
	r.off += uint64(len(r.payBuf))
	r.framesRead++
	r.payloadBytes += uint64(len(r.payBuf))
	if rerr != nil {
		r.err = formatErr("frame payload: %v", rerr)
		return false
	}
	raw := r.payBuf
	if r.hdr.Compressed {
		r.payRd.Reset(r.payBuf)
		if r.fr == nil {
			r.fr = flate.NewReader(&r.payRd)
		} else if err := r.fr.(flate.Resetter).Reset(&r.payRd, nil); err != nil {
			r.err = formatErr("flate reset: %v", err)
			return false
		}
		r.rawBuf, rerr = appendRead(r.rawBuf[:0], r.fr, rawLen)
		if rerr != nil {
			r.err = formatErr("flate payload: %v", rerr)
			return false
		}
		if n, _ := r.fr.Read(r.b1[:]); n != 0 {
			r.err = formatErr("flate payload longer than declared raw length %d", rawLen)
			return false
		}
		raw = r.rawBuf
	}
	r.dec.reset(raw)
	r.frameRem = int(instCount)
	return true
}

// SeekInst positions the Reader so the next instruction produced is
// instruction n (0-based) of the trace, using the frame index to skip
// whole frames and decoding only the remainder. It requires a seekable
// source. Seeking past the end leaves the Reader cleanly exhausted.
// The limit, if any, applies to instructions produced after the seek.
func (r *Reader) SeekInst(n int64) error {
	if r.rs == nil {
		return fmt.Errorf("trace: SeekInst requires a seekable source")
	}
	if r.err != nil {
		return r.err
	}
	if n < 0 {
		return fmt.Errorf("trace: SeekInst(%d): negative instruction", n)
	}
	r.returned = 0
	r.frameRem = 0
	if len(r.index) == 0 || uint64(n) >= r.hdr.Insts {
		r.eof = true
		return nil
	}
	// Binary search the last frame whose firstInst <= n.
	lo, hi := 0, len(r.index)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.index[mid].firstInst <= uint64(n) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	e := r.index[lo]
	if err := r.seekTo(e.offset); err != nil {
		return err
	}
	r.eof = false
	if !r.nextFrame() {
		if r.err == nil {
			r.err = formatErr("index points past the frame list (frame %d at offset %d)", lo, e.offset)
		}
		return r.err
	}
	var scratch isa.Inst
	for skip := uint64(n) - e.firstInst; skip > 0; skip-- {
		if err := r.dec.decodeInst(&scratch); err != nil {
			r.err = err
			return err
		}
		r.frameRem--
	}
	return nil
}

// readHeader parses the fixed header and workload name.
func (r *Reader) readHeader() error {
	var fixed [headerFixedLen]byte
	if err := r.readFull(fixed[:]); err != nil {
		return formatErr("header: %v", err)
	}
	if string(fixed[:4]) != Magic {
		return formatErr("bad magic %q (want %q)", fixed[:4], Magic)
	}
	version := binary.LittleEndian.Uint16(fixed[4:6])
	if version != Version {
		return formatErr("unsupported format version %d (want %d)", version, Version)
	}
	flags := binary.LittleEndian.Uint16(fixed[6:8])
	r.hdr = Header{
		Version:    int(version),
		Compressed: flags&flagCompressed != 0,
		Seed:       binary.LittleEndian.Uint64(fixed[8:16]),
		Insts:      binary.LittleEndian.Uint64(fixed[16:24]),
		UOps:       binary.LittleEndian.Uint64(fixed[24:32]),
		Name:       r.hdr.Name, // replaced below; kept when identical to avoid realloc
	}
	nameLen, err := r.readUvarint()
	if err != nil {
		return formatErr("header name length: %v", err)
	}
	if nameLen > maxNameLen {
		return formatErr("header name of %d bytes exceeds the %d bound", nameLen, maxNameLen)
	}
	r.nameBuf = grow(r.nameBuf, int(nameLen))
	if err := r.readFull(r.nameBuf); err != nil {
		return formatErr("header name: %v", err)
	}
	if string(r.nameBuf) != r.hdr.Name {
		r.hdr.Name = string(r.nameBuf)
	}
	return nil
}

// loadIndex validates the trailer, loads the frame index and recovers
// the totals, then repositions the source at the first frame. The
// index is read in one call, from its offset up to the trailer, into a
// buffer the Reader reuses across Resets.
func (r *Reader) loadIndex() error {
	end, err := r.rs.Seek(-trailerLen, io.SeekEnd)
	if err != nil {
		return formatErr("trailer: %v", err)
	}
	var tr [trailerLen]byte
	r.off = uint64(end)
	if err := r.readFull(tr[:]); err != nil {
		return formatErr("trailer: %v", err)
	}
	if string(tr[8:]) != TrailerMagic {
		return formatErr("bad trailer magic %q (want %q)", tr[8:], TrailerMagic)
	}
	indexOff := binary.LittleEndian.Uint64(tr[:8])
	if indexOff < r.dataOff || indexOff >= uint64(end) {
		return formatErr("index offset %d outside frame region [%d, %d)", indexOff, r.dataOff, end)
	}
	if n := uint64(end) - indexOff; n > maxIndexBytes {
		return formatErr("index of %d bytes exceeds the %d bound", n, maxIndexBytes)
	}
	if err := r.seekTo(indexOff); err != nil {
		return err
	}
	var rerr error
	r.idxBuf, rerr = appendRead(r.idxBuf[:0], r.src, uint64(end)-indexOff)
	if rerr != nil {
		return formatErr("index: %v", rerr)
	}
	r.off = uint64(end)
	idx := r.idxBuf
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(idx)
		if n <= 0 {
			return 0, fmt.Errorf("truncated or overlong uvarint at index byte %d", len(r.idxBuf)-len(idx))
		}
		idx = idx[n:]
		return v, nil
	}
	numFrames, err := uvarint()
	if err != nil {
		return formatErr("index: %v", err)
	}
	if numFrames > maxIndexFrames {
		return formatErr("index declares %d frames (bound %d)", numFrames, maxIndexFrames)
	}
	var prev frameIndexEntry
	for i := uint64(0); i < numFrames; i++ {
		fd, err := uvarint()
		if err != nil {
			return formatErr("index entry %d: %v", i, err)
		}
		od, err := uvarint()
		if err != nil {
			return formatErr("index entry %d: %v", i, err)
		}
		ic, err := uvarint()
		if err != nil {
			return formatErr("index entry %d: %v", i, err)
		}
		e := frameIndexEntry{
			firstInst: prev.firstInst + fd,
			offset:    prev.offset + od,
			instCount: ic,
		}
		if i == 0 && e.offset != r.dataOff {
			return formatErr("first frame offset %d does not follow the header (%d)", e.offset, r.dataOff)
		}
		if ic == 0 || ic > maxFrameInsts {
			return formatErr("index entry %d declares %d instructions", i, ic)
		}
		r.index = append(r.index, e)
		prev = e
	}
	totalInsts, err := uvarint()
	if err != nil {
		return formatErr("index totals: %v", err)
	}
	totalUOps, err := uvarint()
	if err != nil {
		return formatErr("index totals: %v", err)
	}
	if numFrames == 0 && (totalInsts != 0 || totalUOps != 0) {
		return formatErr("index declares no frames but totals of %d instructions / %d µ-ops", totalInsts, totalUOps)
	}
	if numFrames > 0 && prev.firstInst+prev.instCount != totalInsts {
		return formatErr("index totals %d instructions, frames sum to %d", totalInsts, prev.firstInst+prev.instCount)
	}
	if r.hdr.Insts != 0 && (r.hdr.Insts != totalInsts || r.hdr.UOps != totalUOps) {
		return formatErr("header counts (%d insts, %d µ-ops) disagree with index (%d, %d)",
			r.hdr.Insts, r.hdr.UOps, totalInsts, totalUOps)
	}
	r.hdr.Insts = totalInsts
	r.hdr.UOps = totalUOps
	r.hasIndex = true
	return r.seekTo(r.dataOff)
}

func (r *Reader) seekTo(off uint64) error {
	if _, err := r.rs.Seek(int64(off), io.SeekStart); err != nil {
		return formatErr("seek to %d: %v", off, err)
	}
	r.off = off
	return nil
}

func (r *Reader) readFull(b []byte) error {
	n, err := io.ReadFull(r.src, b)
	r.off += uint64(n)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("unexpected end of trace at offset %d", r.off)
	}
	return err
}

// readUvarint decodes a uvarint directly from the source, one byte at a
// time; frame headers are a handful of bytes, so this never dominates.
func (r *Reader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if err := r.readFull(r.b1[:]); err != nil {
			return 0, err
		}
		c := r.b1[0]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, fmt.Errorf("uvarint overflows 64 bits")
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("uvarint longer than %d bytes", binary.MaxVarintLen64)
}

// grow returns buf resized to n bytes, reusing its backing array when
// capacity allows — the steady-state path never allocates.
func grow(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return append(buf[:cap(buf)], make([]byte, n-cap(buf))...)
}

// zeroChunk backs appendRead's bounded growth steps; it lives in .bss.
var zeroChunk [1 << 18]byte

// appendRead appends exactly n bytes from rd onto buf, growing in
// bounded chunks so a corrupt length field cannot force a huge
// allocation before the bytes actually exist. Steady state (capacity
// already grown) reads straight into the backing array.
func appendRead(buf []byte, rd io.Reader, n uint64) ([]byte, error) {
	for n > 0 {
		c := n
		if c > uint64(len(zeroChunk)) {
			c = uint64(len(zeroChunk))
		}
		start := len(buf)
		if cap(buf) >= start+int(c) {
			buf = buf[:start+int(c)]
		} else {
			buf = append(buf, zeroChunk[:c]...)
		}
		if _, err := io.ReadFull(rd, buf[start:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = fmt.Errorf("unexpected end of input with %d payload bytes missing", n)
			}
			return buf, err
		}
		n -= c
	}
	return buf, nil
}
