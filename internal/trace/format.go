// Package trace records and replays dynamic instruction streams as
// compact binary .bbt files, decoupling what the pipeline simulates from
// how the instructions were produced: a replayed trace drives a
// processor bit-identically to the generator it was recorded from, so
// captured, mutated or externally-produced workloads plug into the same
// sweeps as the synthetic Table II suite.
//
// # Wire format (.bbt, version 2)
//
//	File    := Header Frame* Index Trailer
//	Header  := magic "BBTr" | version u16 | seed u64 | nameLen uvarint
//	           | name bytes
//	Frame   := Inst* (the frame's payload, nothing else)
//	Index   := numFrames uvarint
//	           | numFrames × { firstInstΔ uvarint | offsetΔ uvarint
//	                           | instCount uvarint }
//	           | totalInsts uvarint | totalUOps uvarint
//	Trailer := indexOff u64 | magic "rTBB"
//
// Fixed-width fields are little-endian. A frame carries no header: it
// ends where the next frame, or the index, starts, and the Index gives
// its absolute file offset, its first instruction number and its
// instruction count. The Reader reads the header, the trailer and the
// Index at open, checks every frame's span against the file, and then
// loads each frame with one ReadAt, so it can start at any frame
// without reading the ones before it. The Index also holds the trace's
// instruction and µ-op totals.
//
// A frame's payload is the per-instruction encoding below. All delta
// state resets at every frame boundary, which is what makes frames
// independently decodable:
//
//	Inst    := pcΔ varint (vs. previous inst's architectural next PC)
//	           | size uvarint
//	           | ctrl u8: kind(3) | taken(1) | numUOps(3) | hasTarget(1)
//	           | [targetΔ varint vs. PC+size, when hasTarget]
//	           | numUOps × UOp
//	UOp     := flags u8: class(4) | hasDest(1) | loadImm(1) | hasPrev(1)
//	           | [dest u8, when hasDest]
//	           | src0+1 u8 | src1+1 u8
//	           | [addrΔ varint per µ-op slot, when class is load/store]
//	           | [valueΔ varint per µ-op slot, when hasDest]
//	           | [prevΔ varint vs. this µ-op's value, when hasPrev]
//
// varint is the zigzag signed varint of encoding/binary; the per-slot
// value and address deltas exploit that slot j of a static instruction
// tends to stride between dynamic instances.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bebop/internal/isa"
)

// Format identification.
const (
	// Magic opens every .bbt file; TrailerMagic closes it.
	Magic        = "BBTr"
	TrailerMagic = "rTBB"
	// Version is the format version this build writes and reads; OpenFile
	// refuses every other one.
	Version = 2
)

// Fixed geometry: the header's magic(4) + version(2) + seed(8) before
// the variable-length name, and the trailer.
const (
	headerFixedLen = 4 + 2 + 8
	trailerLen     = 12 // indexOff u64 + TrailerMagic
)

// DefaultFrameInsts is the default number of instructions per frame:
// large enough that one read loads many instructions, small enough that
// a seek decodes little.
const DefaultFrameInsts = 4096

// Bounds on declared sizes. Every span is also checked against the
// file's size before it is read, so a corrupt or adversarial input
// fails with an error instead of attempting an enormous allocation.
const (
	maxFrameInsts = 1 << 20
	maxFrameBytes = 1 << 26
	maxNameLen    = 1 << 12
	// maxInstEncoding bounds one encoded instruction: pcΔ, size, ctrl and
	// targetΔ, then per µ-op its flags, destination, two sources and
	// three varint deltas.
	maxInstEncoding = 3*binary.MaxVarintLen64 + 1 + isa.MaxUOpsPerInst*(4+3*binary.MaxVarintLen64)
)

// ErrFormat is wrapped by every malformed-input error, so callers can
// errors.Is-match corruption as a class.
var ErrFormat = errors.New("trace: malformed .bbt input")

func formatErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// Header is the self-describing identity of a trace: the name and seed
// the header stores, and the totals the index stores.
type Header struct {
	// Name and Seed identify the source workload (profile name and seed
	// for recorded generators; free-form for external producers).
	Name string
	Seed uint64
	// Insts and UOps are the trace totals.
	Insts uint64
	UOps  uint64
}

// deltaState is the per-frame prediction context shared by the encoder
// and decoder; resetting it at frame boundaries keeps frames
// independently decodable.
type deltaState struct {
	expectPC uint64
	lastVal  [isa.MaxUOpsPerInst]uint64
	lastAddr [isa.MaxUOpsPerInst]uint64
}

func (st *deltaState) reset() {
	*st = deltaState{}
}

// appendInst encodes one instruction onto buf and advances the delta
// state.
func appendInst(buf []byte, in *isa.Inst, st *deltaState) []byte {
	buf = binary.AppendVarint(buf, int64(in.PC-st.expectPC))
	buf = binary.AppendUvarint(buf, uint64(in.Size))
	ctrl := byte(in.Kind) & 0x7
	if in.Taken {
		ctrl |= 1 << 3
	}
	ctrl |= byte(in.NumUOps&0x7) << 4
	hasTarget := in.Target != 0
	if hasTarget {
		ctrl |= 1 << 7
	}
	buf = append(buf, ctrl)
	if hasTarget {
		buf = binary.AppendVarint(buf, int64(in.Target-(in.PC+uint64(in.Size))))
	}
	for j := 0; j < in.NumUOps; j++ {
		u := &in.UOps[j]
		flags := byte(u.Class) & 0xF
		hasDest := u.Dest != isa.RegNone
		if hasDest {
			flags |= 1 << 4
		}
		if u.IsLoadImm {
			flags |= 1 << 5
		}
		if u.HasPrev {
			flags |= 1 << 6
		}
		buf = append(buf, flags)
		if hasDest {
			buf = append(buf, byte(u.Dest))
		}
		buf = append(buf, byte(u.Src[0]+1), byte(u.Src[1]+1))
		if u.Class == isa.ClassLoad || u.Class == isa.ClassStore {
			buf = binary.AppendVarint(buf, int64(u.Addr-st.lastAddr[j]))
			st.lastAddr[j] = u.Addr
		}
		if hasDest {
			buf = binary.AppendVarint(buf, int64(u.Value-st.lastVal[j]))
			st.lastVal[j] = u.Value
		}
		if u.HasPrev {
			buf = binary.AppendVarint(buf, int64(u.PrevValue-u.Value))
		}
	}
	st.expectPC = in.NextPC()
	return buf
}

// instDecoder walks one decoded frame payload.
type instDecoder struct {
	buf []byte
	pos int
	st  deltaState
}

func (d *instDecoder) reset(buf []byte) {
	d.buf = buf
	d.pos = 0
	d.st.reset()
}

func (d *instDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, formatErr("truncated uvarint at payload offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *instDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, formatErr("truncated varint at payload offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *instDecoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, formatErr("truncated payload at offset %d", d.pos)
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

// decodeInst decodes the next instruction of the frame into *in. The
// caller guarantees the frame still has instructions left.
func (d *instDecoder) decodeInst(in *isa.Inst) error {
	pcd, err := d.varint()
	if err != nil {
		return err
	}
	size, err := d.uvarint()
	if err != nil {
		return err
	}
	if size < 1 || size > isa.MaxInstBytes {
		return formatErr("instruction size %d outside 1..%d", size, isa.MaxInstBytes)
	}
	ctrl, err := d.byte()
	if err != nil {
		return err
	}
	kind := isa.BranchKind(ctrl & 0x7)
	if kind > isa.BranchReturn {
		return formatErr("unknown branch kind %d", kind)
	}
	nuops := int(ctrl >> 4 & 0x7)
	if nuops > isa.MaxUOpsPerInst {
		return formatErr("declared µ-op count %d exceeds isa.MaxUOpsPerInst (%d)", nuops, isa.MaxUOpsPerInst)
	}
	in.PC = d.st.expectPC + uint64(pcd)
	in.Size = int(size)
	in.Kind = kind
	in.Taken = ctrl&(1<<3) != 0
	in.NumUOps = nuops
	in.Target = 0
	if ctrl&(1<<7) != 0 {
		td, err := d.varint()
		if err != nil {
			return err
		}
		in.Target = in.PC + uint64(in.Size) + uint64(td)
	}
	for j := 0; j < nuops; j++ {
		if err := d.decodeUOp(&in.UOps[j], j); err != nil {
			return err
		}
	}
	d.st.expectPC = in.NextPC()
	return nil
}

func (d *instDecoder) decodeUOp(u *isa.MicroOp, slot int) error {
	flags, err := d.byte()
	if err != nil {
		return err
	}
	class := isa.Class(flags & 0xF)
	if int(class) >= isa.NumClasses {
		return formatErr("unknown µ-op class %d", class)
	}
	u.Class = class
	u.IsLoadImm = flags&(1<<5) != 0
	u.Dest = isa.RegNone
	if flags&(1<<4) != 0 {
		db, err := d.byte()
		if err != nil {
			return err
		}
		if int(db) >= isa.NumArchRegs {
			return formatErr("destination register %d outside 0..%d", db, isa.NumArchRegs-1)
		}
		u.Dest = isa.Reg(db)
	}
	for k := 0; k < 2; k++ {
		sb, err := d.byte()
		if err != nil {
			return err
		}
		if int(sb) > isa.NumArchRegs {
			return formatErr("source register code %d outside 0..%d", sb, isa.NumArchRegs)
		}
		u.Src[k] = isa.Reg(sb) - 1
	}
	u.Addr = 0
	if class == isa.ClassLoad || class == isa.ClassStore {
		ad, err := d.varint()
		if err != nil {
			return err
		}
		u.Addr = d.st.lastAddr[slot] + uint64(ad)
		d.st.lastAddr[slot] = u.Addr
	}
	u.Value = 0
	if u.Dest != isa.RegNone {
		vd, err := d.varint()
		if err != nil {
			return err
		}
		u.Value = d.st.lastVal[slot] + uint64(vd)
		d.st.lastVal[slot] = u.Value
	}
	u.PrevValue = 0
	u.HasPrev = flags&(1<<6) != 0
	if u.HasPrev {
		pd, err := d.varint()
		if err != nil {
			return err
		}
		u.PrevValue = u.Value + uint64(pd)
	}
	return nil
}

// frameIndexEntry locates one frame inside the file.
type frameIndexEntry struct {
	firstInst uint64 // index of the frame's first instruction
	offset    uint64 // absolute file offset of the frame's first byte
	instCount uint64
}
