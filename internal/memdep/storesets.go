// Package memdep implements the Store Sets memory dependence predictor
// (Chrysos & Emer, ISCA 1998), configured as in Table I: 1K-entry SSID
// table and 1K-entry LFST. Loads predicted independent of all in-flight
// stores are allowed to issue out of order; a memory-order violation merges
// the offending load and store into a common store set so the load waits
// next time.
package memdep

import "bebop/internal/util"

// StoreSets is the SSID/LFST predictor.
type StoreSets struct {
	ssid   []int32  // PC-indexed store set IDs, -1 = none
	lfst   []uint64 // store-set-indexed last fetched store sequence number
	nextID int32
}

// New builds a predictor with n-entry SSID and LFST tables.
func New(n int) *StoreSets {
	if !util.IsPowerOfTwo(n) {
		panic("memdep: table size must be a power of two")
	}
	s := &StoreSets{
		ssid: make([]int32, n),
		lfst: make([]uint64, n),
	}
	for i := range s.ssid {
		s.ssid[i] = -1
	}
	return s
}

// Reset clears the predictor in place, reusing the SSID/LFST tables.
func (s *StoreSets) Reset() {
	for i := range s.ssid {
		s.ssid[i] = -1
		s.lfst[i] = 0
	}
	s.nextID = 0
}

func (s *StoreSets) idx(pc uint64) int {
	return int(util.Mix64(pc) & uint64(len(s.ssid)-1))
}

// LoadDependsOn returns the sequence number of the store the load at pc
// must wait for, per the LFST, and whether such a dependence is predicted.
func (s *StoreSets) LoadDependsOn(pc uint64) (storeSeq uint64, dep bool) {
	id := s.ssid[s.idx(pc)]
	if id < 0 {
		return 0, false
	}
	seq := s.lfst[int(id)&(len(s.lfst)-1)]
	if seq == 0 {
		return 0, false
	}
	return seq, true
}

// StoreFetched records a fetched store in the LFST if it belongs to a store
// set.
func (s *StoreSets) StoreFetched(pc, seq uint64) {
	id := s.ssid[s.idx(pc)]
	if id < 0 {
		return
	}
	s.lfst[int(id)&(len(s.lfst)-1)] = seq
}

// StoreRetired clears the LFST entry if this store is still the last
// fetched member of its set.
func (s *StoreSets) StoreRetired(pc, seq uint64) {
	id := s.ssid[s.idx(pc)]
	if id < 0 {
		return
	}
	slot := int(id) & (len(s.lfst) - 1)
	if s.lfst[slot] == seq {
		s.lfst[slot] = 0
	}
}

// Violation merges the load and store PCs into one store set, per the
// original merging rules (the lower existing SSID wins; unassigned PCs
// receive a fresh ID).
func (s *StoreSets) Violation(loadPC, storePC uint64) {
	li, si := s.idx(loadPC), s.idx(storePC)
	lid, sid := s.ssid[li], s.ssid[si]
	switch {
	case lid < 0 && sid < 0:
		id := s.nextID
		s.nextID = (s.nextID + 1) & int32(len(s.lfst)-1)
		s.ssid[li], s.ssid[si] = id, id
	case lid < 0:
		s.ssid[li] = sid
	case sid < 0:
		s.ssid[si] = lid
	case lid < sid:
		s.ssid[si] = lid
	default:
		s.ssid[li] = sid
	}
}

// StorageBits reports the predictor's storage cost.
func (s *StoreSets) StorageBits() int {
	// SSID: log2(n)+1 bits per entry; LFST: 16-bit partial seq tags.
	return len(s.ssid)*(util.Log2(len(s.ssid))+1) + len(s.lfst)*16
}
