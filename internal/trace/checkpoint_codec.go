package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"sync"

	"bebop/internal/faultinject"
	"bebop/internal/pipeline"
)

// Side-file layout, format version 3. Every integer is little-endian
// and fixed-width:
//
//	File   := Header | count × Point | Index | indexOffset u64
//	Header := magic "BBCk" | version u16 | fingerprint u64
//	          | traceName str | traceInsts i64 | configName str | count u64
//	Index  := count × (instOffset i64 | byteOffset u64)
//	Point  := the exported fields of pipeline.Checkpoint in declaration
//	          order, each encoded by kind:
//	  bool, intN, uintN  1 or N/8 bytes (int and uint as i64 and u64)
//	  string             u64 length | bytes
//	  array              its elements
//	  slice              u64 length | its elements
//	  struct             its exported fields in declaration order
//	  pointer            u8 presence (0 nil, 1 set) | the pointee
//
// The index gives each point's instruction offset and the file offset
// its encoding starts at; a point ends where the next one (or the index)
// starts. The last 8 bytes locate the index, as the .bbt trailer does,
// so opening a side-file reads the header and the index only, and each
// point is read and decoded on its own when it is restored.
//
// Arrays and slices of bools and fixed-width integers move in bulk
// through encoding/binary, so decoding is a handful of copies per table.
// Fields are found by reflection: a new snapshot field is encoded with
// no change here. The fingerprint hashes the field names and kinds the
// walk visits, so any change to a snapshot struct changes it and the
// reader refuses the older side-files it would otherwise misread. The
// value predictor's state is the typed *predictor.DVTAGESnapshot field,
// so interfaces, which would need a registry of concrete types, are
// refused.
const (
	checkpointMagic   = "BBCk"
	checkpointVersion = 3
	// ckptPrefix is the fixed-width start of the header: magic,
	// version and fingerprint.
	ckptPrefix int64 = 4 + 2 + 8
	// ckptIndexEntry is the size of one index entry.
	ckptIndexEntry = 16
	// ckptBufSize sizes the encoder's bufio buffer; bulk data moves in
	// chunks of at most this many bytes.
	ckptBufSize = 64 << 10
)

// checkpointLayout returns the layout fingerprint, or why
// pipeline.Checkpoint cannot be encoded. It runs once, on first use.
var checkpointLayout = sync.OnceValues(func() (uint64, error) {
	h := fnv.New64a()
	if err := describeLayout(h, reflect.TypeFor[pipeline.Checkpoint](), nil); err != nil {
		return 0, fmt.Errorf("checkpoint layout: %w", err)
	}
	return h.Sum64(), nil
})

// describeLayout writes the canonical description of t's encoded layout
// to w, refusing what the codec cannot encode: unexported fields,
// recursive structs, and kinds outside the table above (interfaces
// among them). open holds the structs being described, outermost first.
func describeLayout(w io.Writer, t reflect.Type, open []reflect.Type) error {
	switch k := t.Kind(); k {
	case reflect.Array:
		fmt.Fprintf(w, "[%d]", t.Len())
		return describeLayout(w, t.Elem(), open)
	case reflect.Slice:
		fmt.Fprint(w, "[]")
		return describeLayout(w, t.Elem(), open)
	case reflect.Pointer:
		fmt.Fprint(w, "*")
		return describeLayout(w, t.Elem(), open)
	case reflect.Struct:
		for _, o := range open {
			if o == t {
				return fmt.Errorf("recursive struct %s", t)
			}
		}
		open = append(open, t)
		fmt.Fprint(w, "struct{")
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("%s.%s is unexported", t, f.Name)
			}
			fmt.Fprintf(w, "%s ", f.Name)
			if err := describeLayout(w, f.Type, open); err != nil {
				return fmt.Errorf("%s.%s: %w", t, f.Name, err)
			}
			fmt.Fprint(w, ";")
		}
		fmt.Fprint(w, "}")
	default:
		if k != reflect.String && intWidth(k) == 0 {
			return fmt.Errorf("unsupported kind %s", k)
		}
		fmt.Fprint(w, k)
	}
	return nil
}

// intWidth is the encoded width of a bool or integer kind, 0 for every
// other kind.
func intWidth(k reflect.Kind) int {
	switch k {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32:
		return 4
	case reflect.Int64, reflect.Uint64, reflect.Int, reflect.Uint:
		return 8
	}
	return 0
}

// bulkSize is the encoded size of one t when encoding/binary can move t
// in bulk (bools, fixed-width integers and arrays of them), else 0.
func bulkSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Int, reflect.Uint:
		return 0 // platform-sized: converted one at a time
	case reflect.Array:
		return t.Len() * bulkSize(t.Elem())
	}
	return intWidth(t.Kind())
}

// minSize is the fewest bytes one t encodes to. Length checks divide
// the bytes left in the file by it, so a declared count can never ask
// for more elements than the file could still hold.
func minSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.String, reflect.Slice:
		return 8
	case reflect.Pointer:
		return 1
	case reflect.Array:
		return t.Len() * minSize(t.Elem())
	case reflect.Struct:
		n := 0
		for i := range t.NumField() {
			n += minSize(t.Field(i).Type)
		}
		return n
	}
	return intWidth(t.Kind())
}

// baseKind is the kind of t's innermost array element.
func baseKind(t reflect.Type) reflect.Kind {
	for t.Kind() == reflect.Array {
		t = t.Elem()
	}
	return t.Kind()
}

// ckptEncoder streams a side-file into a bufio.Writer. A write error
// sticks in the bufio.Writer, which turns every later write into a
// no-op and returns the error from Flush, so the encoder never checks
// individual writes: WriteCheckpoints checks Flush. n counts the bytes
// written, which the index records.
type ckptEncoder struct {
	w       *bufio.Writer
	n       int64
	scratch [8]byte
}

func (e *ckptEncoder) write(b []byte) {
	_, _ = e.w.Write(b) // sticky, see ckptEncoder
	e.n += int64(len(b))
}

func (e *ckptEncoder) fixed(x uint64, width int) {
	binary.LittleEndian.PutUint64(e.scratch[:], x)
	e.write(e.scratch[:width])
}

func (e *ckptEncoder) str(s string) {
	e.fixed(uint64(len(s)), 8)
	_, _ = e.w.WriteString(s) // sticky, see ckptEncoder
	e.n += int64(len(s))
}

// encode writes the whole side-file; fp is the layout fingerprint.
func (e *ckptEncoder) encode(cf *CheckpointFile, fp uint64) error {
	e.write([]byte(checkpointMagic))
	e.fixed(checkpointVersion, 2)
	e.fixed(fp, 8)
	e.str(cf.TraceName)
	e.fixed(uint64(cf.TraceInsts), 8)
	e.str(cf.ConfigName)
	e.fixed(uint64(len(cf.Points)), 8)
	at := make([]int64, len(cf.Points))
	for i, ck := range cf.Points {
		at[i] = e.n
		if err := e.value(reflect.ValueOf(ck).Elem()); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	index := e.n
	for i, ck := range cf.Points {
		e.fixed(uint64(ck.InstOffset), 8)
		e.fixed(uint64(at[i]), 8)
	}
	e.fixed(uint64(index), 8)
	return nil
}

// value encodes v. Every value reached from a *pipeline.Checkpoint is
// addressable, which lets arrays be sliced for the bulk path.
func (e *ckptEncoder) value(v reflect.Value) error {
	switch k := v.Kind(); k {
	case reflect.Bool:
		var b uint64
		if v.Bool() {
			b = 1
		}
		e.fixed(b, 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.fixed(uint64(v.Int()), intWidth(k))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.fixed(v.Uint(), intWidth(k))
	case reflect.String:
		e.str(v.String())
	case reflect.Array:
		return e.elems(v)
	case reflect.Slice:
		e.fixed(uint64(v.Len()), 8)
		return e.elems(v)
	case reflect.Struct:
		for i := range v.NumField() {
			if err := e.value(v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			e.fixed(0, 1)
			return nil
		}
		e.fixed(1, 1)
		return e.value(v.Elem())
	default:
		return fmt.Errorf("unsupported kind %s", k)
	}
	return nil
}

// elems encodes the elements of an array or slice.
func (e *ckptEncoder) elems(v reflect.Value) error {
	n := v.Len()
	size := bulkSize(v.Type().Elem())
	if size == 0 {
		for i := range n {
			if err := e.value(v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	}
	if v.Kind() == reflect.Array {
		v = v.Slice(0, n)
	}
	per := max(1, e.w.Size()/size)
	for i := 0; i < n; i += per {
		chunk := v.Slice(i, min(i+per, n))
		if e.w.Available() < chunk.Len()*size {
			_ = e.w.Flush() // sticky, see ckptEncoder
		}
		b, err := appendBulk(e.w.AvailableBuffer(), chunk.Interface())
		if err != nil {
			return err
		}
		e.write(b)
	}
	return nil
}

// appendBulk appends the encoding of s, a slice of plain elements, to
// b. The common element types run loops over binary.LittleEndian, which
// the compiler inlines: binary.Append takes its byte order as an
// interface and is several times slower per element. Arrays and named
// element types take binary.Append.
func appendBulk(b []byte, s any) ([]byte, error) {
	switch s := s.(type) {
	case []bool:
		for _, x := range s {
			c := byte(0)
			if x {
				c = 1
			}
			b = append(b, c)
		}
	case []int8:
		for _, x := range s {
			b = append(b, byte(x))
		}
	case []uint8:
		b = append(b, s...)
	case []int16:
		b = put16(b, s)
	case []uint16:
		b = put16(b, s)
	case []int32:
		b = put32(b, s)
	case []uint32:
		b = put32(b, s)
	case []int64:
		b = put64(b, s)
	case []uint64:
		b = put64(b, s)
	default:
		return binary.Append(b, binary.LittleEndian, s)
	}
	return b, nil
}

func put16[T ~int16 | ~uint16](b []byte, s []T) []byte {
	for _, x := range s {
		b = binary.LittleEndian.AppendUint16(b, uint16(x))
	}
	return b
}

func put32[T ~int32 | ~uint32](b []byte, s []T) []byte {
	for _, x := range s {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

func put64[T ~int64 | ~uint64](b []byte, s []T) []byte {
	for _, x := range s {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	return b
}

// errTruncated reports a side-file that ends before its layout does.
var errTruncated = errors.New("unexpected end of file")

// ckptDecoder decodes from an in-memory span of a side-file: the
// header, or one point. Every declared length is checked against the
// bytes left before anything is allocated, so a corrupt length fails
// instead of allocating.
type ckptDecoder struct {
	b []byte // the bytes not yet consumed
}

// take consumes the next n bytes.
func (d *ckptDecoder) take(n int) ([]byte, error) {
	if n > len(d.b) {
		return nil, errTruncated
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b, nil
}

func (d *ckptDecoder) fixed(width int) (uint64, error) {
	b, err := d.take(width)
	if err != nil {
		return 0, err
	}
	var x uint64
	for i := width - 1; i >= 0; i-- {
		x = x<<8 | uint64(b[i])
	}
	return x, nil
}

// length reads a u64 element count and checks that the rest of the
// span can hold that many elements of at least elemMin bytes each.
func (d *ckptDecoder) length(elemMin int) (int, error) {
	n, err := d.fixed(8)
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.b))/uint64(max(elemMin, 1)) {
		return 0, fmt.Errorf("length %d does not fit in the %d bytes left", n, len(d.b))
	}
	return int(n), nil
}

func (d *ckptDecoder) str() (string, error) {
	n, err := d.length(1)
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	return string(b), err
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
// is decoded.
func readCheckpointSet(r io.ReaderAt, size int64) (*CheckpointSet, error) {
	fp, err := checkpointLayout()
	if err != nil {
		return nil, err
	}
	if size < ckptPrefix+8 {
		return nil, errTruncated
	}
	b := make([]byte, ckptPrefix)
	if err := readFull(r, b, 0); err != nil {
		return nil, err
	}
	if string(b[:4]) != checkpointMagic {
		return nil, fmt.Errorf("bad magic %q (want %q)", b[:4], checkpointMagic)
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != checkpointVersion {
		return nil, fmt.Errorf("format version %d (want %d)", v, checkpointVersion)
	}
	if got := binary.LittleEndian.Uint64(b[6:14]); got != fp {
		return nil, fmt.Errorf("layout fingerprint %#016x, this build writes %#016x", got, fp)
	}
	if err := readFull(r, b[:8], size-8); err != nil {
		return nil, err
	}
	index := binary.LittleEndian.Uint64(b[:8])
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
	minPoint := int64(minSize(reflect.TypeFor[pipeline.Checkpoint]()))
	prev := int64(-1)
	for i, inst := range s.insts {
		if inst <= prev {
			return nil, fmt.Errorf("checkpoint offsets not strictly increasing at %d (%d after %d)", i, inst, prev)
		}
		if inst > s.traceInsts {
			return nil, fmt.Errorf("checkpoint %d at instruction %d past the trace end (%d)", i, inst, s.traceInsts)
		}
		if end := s.offs[i+1]; end < s.offs[i] || end-s.offs[i] < minPoint {
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
	d := ckptDecoder{b: b}
	var err error
	if s.traceName, err = d.str(); err != nil {
		return err
	}
	insts, err := d.fixed(8)
	if err != nil {
		return err
	}
	s.traceInsts = int64(insts)
	if s.configName, err = d.str(); err != nil {
		return err
	}
	count, err := d.fixed(8)
	if err != nil {
		return err
	}
	if count != uint64(len(s.insts)) {
		return fmt.Errorf("header declares %d points, the index holds %d", count, len(s.insts))
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%d stray bytes between the header and the first point", len(d.b))
	}
	if s.configName == "" || s.traceName == "" {
		return fmt.Errorf("checkpoint file missing trace or config identity")
	}
	return nil
}

// decodePoint reads point i into buf, which it grows as needed and
// returns for reuse, and decodes it into ck. The point must fill its
// span exactly and agree with the index and the header.
func (s *CheckpointSet) decodePoint(i int, ck *pipeline.Checkpoint, buf []byte) ([]byte, error) {
	if err := faultinject.Fire("trace.checkpoint.point"); err != nil {
		return buf, err
	}
	n := int(s.offs[i+1] - s.offs[i])
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if err := readFull(s.r, buf, s.offs[i]); err != nil {
		return buf, err
	}
	d := ckptDecoder{b: buf}
	if err := d.value(reflect.ValueOf(ck).Elem()); err != nil {
		return buf, err
	}
	switch {
	case len(d.b) != 0:
		return buf, fmt.Errorf("%d trailing bytes", len(d.b))
	case ck.InstOffset != s.insts[i]:
		return buf, fmt.Errorf("restores instruction %d, the index says %d", ck.InstOffset, s.insts[i])
	case ck.ConfigName != s.configName:
		return buf, fmt.Errorf("taken under config %q, file declares %q", ck.ConfigName, s.configName)
	}
	return buf, nil
}

// value decodes into the settable v, reusing the slices and pointees v
// already holds where they fit, so decoding into a reused Checkpoint
// allocates only what grew.
func (d *ckptDecoder) value(v reflect.Value) error {
	switch k := v.Kind(); k {
	case reflect.Bool:
		x, err := d.fixed(1)
		if err != nil {
			return err
		}
		if x > 1 {
			return fmt.Errorf("bool byte %d", x)
		}
		v.SetBool(x == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w := intWidth(k)
		x, err := d.fixed(w)
		if err != nil {
			return err
		}
		s := int64(x<<(64-8*w)) >> (64 - 8*w) // sign-extend
		if v.OverflowInt(s) {
			return fmt.Errorf("%d overflows %s", s, v.Type())
		}
		v.SetInt(s)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, err := d.fixed(intWidth(k))
		if err != nil {
			return err
		}
		if v.OverflowUint(x) {
			return fmt.Errorf("%d overflows %s", x, v.Type())
		}
		v.SetUint(x)
	case reflect.String:
		s, err := d.str()
		if err != nil {
			return err
		}
		v.SetString(s)
	case reflect.Array:
		return d.elems(v)
	case reflect.Slice:
		n, err := d.length(minSize(v.Type().Elem()))
		if err != nil {
			return err
		}
		switch {
		case n == 0:
			v.SetZero() // an empty slice loads as nil
			return nil
		case v.Cap() >= n:
			v.SetLen(n)
		default:
			v.Set(reflect.MakeSlice(v.Type(), n, n))
		}
		return d.elems(v)
	case reflect.Struct:
		for i := range v.NumField() {
			if err := d.value(v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		present, err := d.fixed(1)
		if err != nil {
			return err
		}
		switch present {
		case 0:
			v.SetZero()
		case 1:
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			return d.value(v.Elem())
		default:
			return fmt.Errorf("presence byte %d", present)
		}
	default:
		return fmt.Errorf("unsupported kind %s", k)
	}
	return nil
}

// elems decodes the elements of an array or an already sized slice.
func (d *ckptDecoder) elems(v reflect.Value) error {
	n := v.Len()
	size := bulkSize(v.Type().Elem())
	if size == 0 {
		for i := range n {
			if err := d.value(v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	}
	b, err := d.take(n * size)
	if err != nil {
		return err
	}
	if v.Kind() == reflect.Array {
		v = v.Slice(0, n)
	}
	return decodeBulk(v.Interface(), b)
}

// decodeBulk fills s, a slice of plain elements, from b, which holds
// exactly its encoding; the counterpart of appendBulk. A bool must be
// stored as 0 or 1, so a file that loads re-encodes to the same bytes.
func decodeBulk(s any, b []byte) error {
	switch s := s.(type) {
	case []bool:
		for i, c := range b {
			if c > 1 {
				return fmt.Errorf("bool byte %d", c)
			}
			s[i] = c == 1
		}
	case []int8:
		for i, c := range b {
			s[i] = int8(c)
		}
	case []uint8:
		copy(s, b)
	case []int16:
		get16(s, b)
	case []uint16:
		get16(s, b)
	case []int32:
		get32(s, b)
	case []uint32:
		get32(s, b)
	case []int64:
		get64(s, b)
	case []uint64:
		get64(s, b)
	default:
		if baseKind(reflect.TypeOf(s).Elem()) == reflect.Bool {
			for _, c := range b {
				if c > 1 {
					return fmt.Errorf("bool byte %d", c)
				}
			}
		}
		_, err := binary.Decode(b, binary.LittleEndian, s)
		return err
	}
	return nil
}

// The get loops advance b rather than index it, which lets the
// compiler drop most bounds checks.

func get16[T ~int16 | ~uint16](s []T, b []byte) {
	for i := range s {
		s[i] = T(binary.LittleEndian.Uint16(b))
		b = b[2:]
	}
}

func get32[T ~int32 | ~uint32](s []T, b []byte) {
	for i := range s {
		s[i] = T(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
}

func get64[T ~int64 | ~uint64](s []T, b []byte) {
	for i := range s {
		s[i] = T(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
}
