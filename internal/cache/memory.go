package cache

import "bebop/internal/util"

// MemConfig models a single-channel DDR3-1600-like main memory (Table I):
// 2 ranks, 8 banks per rank, an 8K row buffer, minimum read latency 75
// cycles and maximum 185 cycles at the 4GHz core clock.
type MemConfig struct {
	MinLatency int // row-buffer-hit, unloaded
	MaxLatency int // worst case under contention / row conflicts
	Banks      int // total banks (ranks * banks/rank)
	RowBytes   int // row buffer size
	BankBusy   int // cycles a bank is busy per access
	BusBusy    int // cycles the shared data bus is busy per transfer
}

// DefaultMemConfig matches Table I.
func DefaultMemConfig() MemConfig {
	return MemConfig{
		MinLatency: 75,
		MaxLatency: 185,
		Banks:      16,
		RowBytes:   8 << 10,
		BankBusy:   24,
		BusBusy:    4,
	}
}

// Memory is the DRAM latency model. Each bank tracks its open row and its
// next-free cycle; a shared bus serializes transfers. Latency therefore
// ranges from MinLatency (open-row, idle) up to MaxLatency (closed row
// behind queued accesses), reproducing the 75..185-cycle span of Table I.
type Memory struct {
	cfg MemConfig
	//bebop:nosnap bank busy clocks; Warm quiesces them and checkpoints need a processor that has run no detailed cycle, so they are zero
	bankFree []int64
	openRow  []uint64
	//bebop:nosnap bus busy clock; Warm quiesces it and checkpoints need a processor that has run no detailed cycle, so it is zero
	busFree int64

	// rowShift/bankMask derive an access's row and bank: RowBytes and
	// Banks are powers of two.
	rowShift int
	bankMask uint64
}

// NewMemory builds the DRAM model. RowBytes and Banks must be powers of
// two.
func NewMemory(cfg MemConfig) *Memory {
	if !util.IsPowerOfTwo(cfg.RowBytes) || !util.IsPowerOfTwo(cfg.Banks) {
		panic("cache: memory row size and bank count must be powers of two")
	}
	m := &Memory{
		cfg:      cfg,
		bankFree: make([]int64, cfg.Banks),
		openRow:  make([]uint64, cfg.Banks),
		rowShift: util.Log2(cfg.RowBytes),
		bankMask: uint64(cfg.Banks - 1),
	}
	for i := range m.openRow {
		m.openRow[i] = ^uint64(0)
	}
	return m
}

// Reset clears the DRAM timing state in place, reusing the bank arrays.
func (m *Memory) Reset() {
	for i := range m.bankFree {
		m.bankFree[i] = 0
		m.openRow[i] = ^uint64(0)
	}
	m.busFree = 0
}

// QuiesceTiming clears the bank/bus busy clocks (timing state) while
// keeping the open-row registers (locality state a warmed run should
// inherit).
func (m *Memory) QuiesceTiming() {
	for i := range m.bankFree {
		m.bankFree[i] = 0
	}
	m.busFree = 0
}

// Access performs a line-fill read beginning no earlier than cycle now and
// returns the data-available cycle.
func (m *Memory) Access(line uint64, now int64) int64 {
	row := line << lineShift >> m.rowShift
	bank := int(util.Mix64(row) & m.bankMask)

	start := now
	if m.bankFree[bank] > start {
		start = m.bankFree[bank]
	}
	if m.busFree > start {
		start = m.busFree
	}

	lat := int64(m.cfg.MinLatency)
	if m.openRow[bank] != row {
		// Row conflict: precharge + activate.
		lat += int64(m.cfg.MaxLatency-m.cfg.MinLatency) / 2
		m.openRow[bank] = row
	}
	done := start + lat
	// Clamp to the worst case of Table I.
	if done-now > int64(m.cfg.MaxLatency) {
		done = now + int64(m.cfg.MaxLatency)
	}
	m.bankFree[bank] = start + int64(m.cfg.BankBusy)
	m.busFree = start + int64(m.cfg.BusBusy)
	return done
}
