package specwindow

import (
	"testing"
	"testing/quick"
)

func vals(vs ...uint64) (out [MaxNPred]uint64, has [MaxNPred]bool) {
	for i, v := range vs {
		out[i] = v
		has[i] = true
	}
	return
}

func TestLookupMostRecent(t *testing.T) {
	w := New(8, 15)
	v1, h1 := vals(100)
	v2, h2 := vals(200)
	w.Insert(0x1000, 10, v1, h1)
	w.Insert(0x1000, 20, v2, h2)
	e := w.Lookup(0x1000)
	if e == nil || e.seq != 20 {
		t.Fatalf("lookup did not return the most recent entry: %+v", e)
	}
	got, _ := e.Values()
	if got[0] != 200 {
		t.Fatalf("values = %v", got[0])
	}
}

func TestLookupMiss(t *testing.T) {
	w := New(8, 15)
	v, h := vals(1)
	w.Insert(0x1000, 1, v, h)
	if w.Lookup(0x2000) != nil {
		t.Fatal("different block must miss (modulo 15-bit tag collision, which these PCs avoid)")
	}
}

func TestDisabledWindow(t *testing.T) {
	w := New(0, 15)
	v, h := vals(1)
	w.Insert(0x1000, 1, v, h)
	if w.Lookup(0x1000) != nil {
		t.Fatal("size-0 window must never hit")
	}
	if w.Enabled() {
		t.Fatal("size-0 window must report disabled")
	}
}

func TestCircularOverwrite(t *testing.T) {
	w := New(2, 15)
	for i := uint64(0); i < 5; i++ {
		v, h := vals(i)
		w.Insert(0x1000+i*16, i+1, v, h)
	}
	// Only the last two survive.
	if w.Lookup(0x1000) != nil {
		t.Fatal("oldest entry must have been overwritten")
	}
	if e := w.Lookup(0x1000 + 4*16); e == nil {
		t.Fatal("newest entry missing")
	}
}

func TestSquashYoungerThan(t *testing.T) {
	w := New(8, 15)
	for i := uint64(1); i <= 5; i++ {
		v, h := vals(i)
		w.Insert(0x1000+i*16, i*10, v, h)
	}
	w.SquashYoungerThan(30)
	if w.Lookup(0x1000+4*16) != nil || w.Lookup(0x1000+5*16) != nil {
		t.Fatal("younger entries must be squashed")
	}
	if w.Lookup(0x1000+2*16) == nil {
		t.Fatal("older entries must survive")
	}
}

func TestInvalidateSeq(t *testing.T) {
	w := New(8, 15)
	v, h := vals(7)
	w.Insert(0x1000, 42, v, h)
	w.InvalidateSeq(42)
	if w.Lookup(0x1000) != nil {
		t.Fatal("invalidated entry still visible")
	}
}

func TestInfiniteWindowKeepsAll(t *testing.T) {
	w := New(-1, 15)
	for i := uint64(0); i < 1000; i++ {
		v, h := vals(i)
		w.Insert(0x1000+i*16, i+1, v, h)
	}
	if e := w.Lookup(0x1000); e == nil {
		t.Fatal("unbounded window must keep old entries")
	}
	if !w.infinite {
		t.Fatal("New(-1, …) must build an unbounded window")
	}
}

func TestInfiniteSquashTruncates(t *testing.T) {
	w := New(-1, 15)
	for i := uint64(1); i <= 100; i++ {
		v, h := vals(i)
		w.Insert(0x1000+i*16, i, v, h)
	}
	w.SquashYoungerThan(50)
	if w.Lookup(0x1000+80*16) != nil {
		t.Fatal("younger entry survived squash")
	}
	if w.Lookup(0x1000+30*16) == nil {
		t.Fatal("older entry destroyed by squash")
	}
}

func TestHitCounting(t *testing.T) {
	w := New(8, 15)
	v, h := vals(1)
	w.Insert(0x1000, 1, v, h)
	w.Lookup(0x1000)
	w.Lookup(0x9999000)
	if w.Probes != 2 || w.Hits != 1 {
		t.Fatalf("probes=%d hits=%d", w.Probes, w.Hits)
	}
}

func TestStorageBits(t *testing.T) {
	w := New(32, 15)
	want := 32 * (15 + 16 + 6*(64+4))
	if got := w.StorageBits(6); got != want {
		t.Fatalf("storage = %d, want %d", got, want)
	}
	if New(-1, 15).StorageBits(6) != 0 {
		t.Fatal("unbounded window is idealistic and costs no modelled storage")
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{PolicyIdeal, PolicyRepred, PolicyDnRDnR, PolicyDnRR} {
		if p.String() == "?" {
			t.Fatalf("policy %d unnamed", p)
		}
		back, ok := ParsePolicy(p.String())
		if !ok || back != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), back, ok)
		}
	}
	if _, ok := ParsePolicy("bogus"); ok {
		t.Fatal("bogus policy parsed")
	}
}

func TestQuickMostRecentWins(t *testing.T) {
	// Property: after inserting k entries for the same block with
	// increasing seq, lookup always returns the last one.
	f := func(k uint8) bool {
		w := New(64, 15)
		n := uint64(k%32) + 1
		for i := uint64(1); i <= n; i++ {
			v, h := vals(i * 3)
			w.Insert(0xAB00, i, v, h)
		}
		e := w.Lookup(0xAB00)
		if e == nil {
			return false
		}
		got, _ := e.Values()
		return e.seq == n && got[0] == n*3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
