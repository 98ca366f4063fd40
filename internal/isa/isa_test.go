package isa

import (
	"testing"
	"testing/quick"
)

func TestBlockPCAligns(t *testing.T) {
	if BlockPC(0x1234) != 0x1230 {
		t.Fatalf("BlockPC(0x1234) = %#x", BlockPC(0x1234))
	}
	if BlockPC(0x1230) != 0x1230 {
		t.Fatal("aligned PC must be its own block")
	}
}

func TestBlockOffset(t *testing.T) {
	if BlockOffset(0x1234) != 4 {
		t.Fatalf("BlockOffset(0x1234) = %d", BlockOffset(0x1234))
	}
	if BlockOffset(0x1230) != 0 {
		t.Fatal("aligned PC offset must be 0")
	}
}

func TestBlockDecomposition(t *testing.T) {
	// Property: pc == BlockPC(pc) + BlockOffset(pc), offset < block size.
	f := func(pc uint64) bool {
		off := BlockOffset(pc)
		return BlockPC(pc)+uint64(off) == pc && off >= 0 && off < FetchBlockSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNextPCFallThrough(t *testing.T) {
	in := Inst{PC: 0x100, Size: 5}
	if in.NextPC() != 0x105 {
		t.Fatalf("NextPC = %#x", in.NextPC())
	}
}

func TestNextPCTakenBranch(t *testing.T) {
	in := Inst{PC: 0x100, Size: 2, Kind: BranchCond, Taken: true, Target: 0x80}
	if in.NextPC() != 0x80 {
		t.Fatalf("NextPC = %#x, want target", in.NextPC())
	}
}

func TestNextPCNotTakenBranch(t *testing.T) {
	in := Inst{PC: 0x100, Size: 2, Kind: BranchCond, Taken: false, Target: 0x80}
	if in.NextPC() != 0x102 {
		t.Fatalf("NextPC = %#x, want fall-through", in.NextPC())
	}
}

func TestEligible(t *testing.T) {
	u := MicroOp{Dest: 3}
	if !u.Eligible() {
		t.Fatal("register-producing µ-op must be eligible")
	}
	u = MicroOp{Dest: RegNone}
	if u.Eligible() {
		t.Fatal("destination-less µ-op must not be eligible")
	}
	u = MicroOp{Dest: 3, IsLoadImm: true}
	if u.Eligible() {
		t.Fatal("load-immediates are handled for free, not predicted")
	}
}

func TestClassStrings(t *testing.T) {
	seen := map[string]bool{}
	for c := ClassNop; c < Class(NumClasses); c++ {
		s := c.String()
		if s == "?" || s == "" {
			t.Fatalf("class %d has no name", c)
		}
		if seen[s] {
			t.Fatalf("duplicate class name %q", s)
		}
		seen[s] = true
	}
}

// TestFetchBlockGeometry: BlockPC and BlockOffset mask with
// FetchBlockSize-1, which splits a PC only for a power of two.
func TestFetchBlockGeometry(t *testing.T) {
	if FetchBlockSize <= 0 || FetchBlockSize&(FetchBlockSize-1) != 0 {
		t.Fatalf("FetchBlockSize %d is not a power of two", FetchBlockSize)
	}
}
