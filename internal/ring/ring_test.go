package ring

import (
	"math/rand"
	"testing"
)

func TestPushPopFIFO(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 100; i++ {
		r.PushBack(i)
	}
	if r.Len() != 100 {
		t.Fatalf("len %d, want 100", r.Len())
	}
	for i := 0; i < 100; i++ {
		if v := r.PopFront(); v != i {
			t.Fatalf("PopFront = %d, want %d", v, i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("len %d after drain", r.Len())
	}
}

func TestDequeEnds(t *testing.T) {
	var r Ring[int]
	r.PushBack(2)
	r.PushFront(1)
	r.PushBack(3)
	if r.Front() != 1 || r.Back() != 3 || r.At(1) != 2 {
		t.Fatalf("order wrong: %d %d %d", r.At(0), r.At(1), r.At(2))
	}
	if v := r.PopBack(); v != 3 {
		t.Fatalf("PopBack = %d", v)
	}
	if v := r.PopFront(); v != 1 {
		t.Fatalf("PopFront = %d", v)
	}
}

func TestWrapAroundNoAlloc(t *testing.T) {
	// Steady-state push/pop must reuse slots: force wrap far past the
	// initial capacity without growing.
	var r Ring[int]
	for i := 0; i < 8; i++ {
		r.PushBack(i)
	}
	capBefore := len(r.buf)
	for i := 8; i < 10_000; i++ {
		r.PushBack(i)
		if got := r.PopFront(); got != i-8 {
			t.Fatalf("at %d: PopFront = %d, want %d", i, got, i-8)
		}
	}
	if len(r.buf) != capBefore {
		t.Fatalf("ring grew from %d to %d under steady state", capBefore, len(r.buf))
	}
}

func TestTruncateBack(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 10; i++ {
		r.PushBack(i)
	}
	r.TruncateBack(4)
	if r.Len() != 4 || r.Back() != 3 {
		t.Fatalf("after truncate: len=%d back=%d", r.Len(), r.Back())
	}
	// Dropped slots must be reusable.
	r.PushBack(99)
	if r.Back() != 99 || r.Len() != 5 {
		t.Fatal("push after truncate broken")
	}
}

func TestFilter(t *testing.T) {
	var r Ring[int]
	// Offset head so filtering exercises wrapped storage.
	for i := 0; i < 5; i++ {
		r.PushBack(0)
		r.PopFront()
	}
	for i := 0; i < 20; i++ {
		r.PushBack(i)
	}
	r.Filter(func(v int) bool { return v%3 == 0 })
	want := []int{0, 3, 6, 9, 12, 15, 18}
	if r.Len() != len(want) {
		t.Fatalf("len %d, want %d", r.Len(), len(want))
	}
	for i, w := range want {
		if r.At(i) != w {
			t.Fatalf("At(%d) = %d, want %d", i, r.At(i), w)
		}
	}
}

func TestRemoveAt(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 6; i++ {
		r.PushBack(i)
	}
	r.RemoveAt(2)
	want := []int{0, 1, 3, 4, 5}
	for i, w := range want {
		if r.At(i) != w {
			t.Fatalf("At(%d) = %d, want %d", i, r.At(i), w)
		}
	}
	r.RemoveAt(0)
	r.RemoveAt(r.Len() - 1)
	if r.Len() != 3 || r.Front() != 1 || r.Back() != 4 {
		t.Fatalf("end removals wrong: len=%d", r.Len())
	}
}

func TestClearKeepsStorage(t *testing.T) {
	var r Ring[*int]
	x := 1
	for i := 0; i < 40; i++ {
		r.PushBack(&x)
	}
	buf := &r.buf[0]
	r.Clear()
	if r.Len() != 0 {
		t.Fatal("Clear left elements")
	}
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatal("Clear retained a pointer")
		}
	}
	r.PushBack(&x)
	if &r.buf[0] != buf {
		t.Fatal("Clear dropped the backing storage")
	}
}

func TestPopZeroesSlots(t *testing.T) {
	var r Ring[*int]
	x := 7
	r.PushBack(&x)
	r.PushBack(&x)
	r.PopFront()
	r.PopBack()
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatal("pop retained a pointer")
		}
	}
}

func TestAgainstSliceModel(t *testing.T) {
	// Randomized differential test against a plain slice deque.
	rng := rand.New(rand.NewSource(42))
	var r Ring[int]
	var model []int
	for step := 0; step < 50_000; step++ {
		switch op := rng.Intn(8); {
		case op == 0:
			v := rng.Int()
			r.PushFront(v)
			model = append([]int{v}, model...)
		case op <= 3:
			v := rng.Int()
			r.PushBack(v)
			model = append(model, v)
		case op == 4 && len(model) > 0:
			if got := r.PopFront(); got != model[0] {
				t.Fatalf("step %d: PopFront %d want %d", step, got, model[0])
			}
			model = model[1:]
		case op == 5 && len(model) > 0:
			if got := r.PopBack(); got != model[len(model)-1] {
				t.Fatalf("step %d: PopBack mismatch", step)
			}
			model = model[:len(model)-1]
		case op == 6 && len(model) > 0:
			i := rng.Intn(len(model))
			r.RemoveAt(i)
			model = append(model[:i], model[i+1:]...)
		case op == 7 && rng.Intn(25) == 0:
			keep := func(v int) bool { return v%2 == 0 }
			r.Filter(keep)
			w := model[:0]
			for _, v := range model {
				if keep(v) {
					w = append(w, v)
				}
			}
			model = w
		}
		if r.Len() != len(model) {
			t.Fatalf("step %d: len %d want %d", step, r.Len(), len(model))
		}
		if len(model) > 0 {
			i := rng.Intn(len(model))
			if r.At(i) != model[i] {
				t.Fatalf("step %d: At(%d) = %d want %d", step, i, r.At(i), model[i])
			}
		}
	}
}

func BenchmarkSteadyStatePushPop(b *testing.B) {
	var r Ring[int]
	for i := 0; i < 64; i++ {
		r.PushBack(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PushBack(i)
		r.PopFront()
	}
}
