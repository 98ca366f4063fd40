// Package ring provides a growable circular deque used by the simulator's
// hot structures (decode queue, ROB, LQ, SQ, the BeBoP FIFO update
// queue and the refetch queue). Unlike the append-and-reslice pattern it
// replaces, a Ring never re-allocates in steady state: PopFront reclaims
// the slot for a later PushBack, so a pipeline that stays within its
// high-water mark performs zero allocations per simulated instruction.
//
// All operations are O(1) except Filter and RemoveAt, which are O(n) like
// their slice counterparts. Popped and filtered slots are zeroed so the
// ring never retains pointers to pooled objects past their lifetime.
package ring

// Ring is a growable circular deque. The zero value is an empty ring
// ready for use.
type Ring[T any] struct {
	buf  []T // power-of-two length once allocated
	head int // index of the front element
	n    int
}

// Len returns the number of elements.
func (r *Ring[T]) Len() int { return r.n }

// mask returns the index mask; callers must ensure buf is allocated.
func (r *Ring[T]) mask() int { return len(r.buf) - 1 }

// At returns the i-th element from the front (0 = oldest).
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("ring: index out of range")
	}
	return r.buf[(r.head+i)&r.mask()]
}

// Front returns the oldest element.
func (r *Ring[T]) Front() T { return r.At(0) }

// Back returns the youngest element.
func (r *Ring[T]) Back() T { return r.At(r.n - 1) }

// PushBack appends v at the back.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&r.mask()] = v
	r.n++
}

// PushFront prepends v at the front.
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & r.mask()
	r.buf[r.head] = v
	r.n++
}

// PopFront removes and returns the oldest element.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("ring: PopFront on empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & r.mask()
	r.n--
	return v
}

// PopBack removes and returns the youngest element.
func (r *Ring[T]) PopBack() T {
	if r.n == 0 {
		panic("ring: PopBack on empty ring")
	}
	var zero T
	i := (r.head + r.n - 1) & r.mask()
	v := r.buf[i]
	r.buf[i] = zero
	r.n--
	return v
}

// TruncateBack keeps the first keep elements, dropping the youngest
// n-keep. Dropped slots are zeroed.
func (r *Ring[T]) TruncateBack(keep int) {
	if keep < 0 || keep > r.n {
		panic("ring: TruncateBack out of range")
	}
	var zero T
	for i := keep; i < r.n; i++ {
		r.buf[(r.head+i)&r.mask()] = zero
	}
	r.n = keep
}

// Clear removes all elements, zeroing the backing storage but keeping it
// for reuse.
func (r *Ring[T]) Clear() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&r.mask()] = zero
	}
	r.head, r.n = 0, 0
}

// RemoveAt removes the i-th element from the front, shifting the shorter
// of the two surrounding segments: O(min(i, n-1-i)), so removing at
// either end is O(1) — the common case for queues drained in order that
// occasionally have a middle element plucked out (LQ/SQ).
func (r *Ring[T]) RemoveAt(i int) {
	if i < 0 || i >= r.n {
		panic("ring: RemoveAt out of range")
	}
	var zero T
	if i < r.n-1-i {
		for j := i; j > 0; j-- {
			r.buf[(r.head+j)&r.mask()] = r.buf[(r.head+j-1)&r.mask()]
		}
		r.buf[r.head] = zero
		r.head = (r.head + 1) & r.mask()
	} else {
		for j := i; j < r.n-1; j++ {
			r.buf[(r.head+j)&r.mask()] = r.buf[(r.head+j+1)&r.mask()]
		}
		r.buf[(r.head+r.n-1)&r.mask()] = zero
	}
	r.n--
}

// Filter keeps the elements for which keep returns true, preserving
// order. keep is called exactly once per element, front to back; it must
// not mutate the ring.
func (r *Ring[T]) Filter(keep func(T) bool) {
	var zero T
	w := 0
	for i := 0; i < r.n; i++ {
		v := r.buf[(r.head+i)&r.mask()]
		if keep(v) {
			r.buf[(r.head+w)&r.mask()] = v
			w++
		}
	}
	for i := w; i < r.n; i++ {
		r.buf[(r.head+i)&r.mask()] = zero
	}
	r.n = w
}

// grow doubles the backing storage, re-linearizing the elements.
func (r *Ring[T]) grow() {
	nc := len(r.buf) * 2
	if nc == 0 {
		nc = 16
	}
	nb := make([]T, nc)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&r.mask()]
	}
	r.buf = nb
	r.head = 0
}
