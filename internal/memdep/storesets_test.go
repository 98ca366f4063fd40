package memdep

import "testing"

func TestColdPredictorPredictsIndependent(t *testing.T) {
	s := New(1024)
	if _, dep := s.LoadDependsOn(0x400100); dep {
		t.Fatal("cold predictor must predict independence")
	}
}

func TestViolationCreatesDependence(t *testing.T) {
	s := New(1024)
	loadPC, storePC := uint64(0x400100), uint64(0x400200)
	s.Violation(loadPC, storePC)
	// The store is fetched again and recorded in the LFST.
	s.StoreFetched(storePC, 77)
	seq, dep := s.LoadDependsOn(loadPC)
	if !dep || seq != 77 {
		t.Fatalf("load not made dependent: dep=%v seq=%d", dep, seq)
	}
}

func TestStoreRetiredClearsLFST(t *testing.T) {
	s := New(1024)
	s.Violation(0x100, 0x200)
	s.StoreFetched(0x200, 5)
	s.StoreRetired(0x200, 5)
	if _, dep := s.LoadDependsOn(0x100); dep {
		t.Fatal("retired store must clear its LFST entry")
	}
}

func TestStoreRetiredKeepsNewerStore(t *testing.T) {
	s := New(1024)
	s.Violation(0x100, 0x200)
	s.StoreFetched(0x200, 5)
	s.StoreFetched(0x200, 9) // newer instance
	s.StoreRetired(0x200, 5) // old retire must not clear
	seq, dep := s.LoadDependsOn(0x100)
	if !dep || seq != 9 {
		t.Fatalf("newer store lost: dep=%v seq=%d", dep, seq)
	}
}

func TestMergingAssignsSameSet(t *testing.T) {
	s := New(1024)
	s.Violation(0x100, 0x200)
	// A second violation with a new store joins the existing set.
	s.Violation(0x100, 0x300)
	s.StoreFetched(0x300, 42)
	seq, dep := s.LoadDependsOn(0x100)
	if !dep || seq != 42 {
		t.Fatalf("merged store not visible: dep=%v seq=%d", dep, seq)
	}
}

func TestUnrelatedStoreNoDependence(t *testing.T) {
	s := New(1024)
	s.Violation(0x100, 0x200)
	s.StoreFetched(0x999, 13) // never violated with the load
	if seq, dep := s.LoadDependsOn(0x100); dep && seq == 13 {
		t.Fatal("unrelated store created a dependence")
	}
}

func TestStorageBitsPositive(t *testing.T) {
	s := New(1024)
	if s.StorageBits() <= 0 {
		t.Fatal("storage must be positive")
	}
}

func TestPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two size must panic")
		}
	}()
	New(1000)
}
