package snap

// Counter is a table that encodes itself: AppendState appends its
// state to a byte string and LoadState decodes it back. LoadState
// forgets the clock, so a restored table ages from zero.
type Counter struct {
	ctr   []uint8
	clock uint64 // want `field Counter.clock is written by \(Counter\).Tick but missing from \(Counter\).LoadState`
}

// Reader is the decoding side of the byte string.
type Reader struct{ b []byte }

// Uint8s decodes into dst.
func (r *Reader) Uint8s(dst []uint8) { r.b = r.b[copy(dst, r.b):] }

// Tick is the hot-path state evolution.
func (c *Counter) Tick(i int) {
	c.ctr[i]++
	c.clock++
}

// AppendState covers both fields.
func (c *Counter) AppendState(b []byte) []byte {
	b = append(b, c.ctr...)
	return append(b, byte(c.clock))
}

// LoadState forgets clock.
func (c *Counter) LoadState(r *Reader) error {
	r.Uint8s(c.ctr)
	return nil
}
