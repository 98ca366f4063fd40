package pipeline

import "sort"

// Per-PC hard-to-predict (H2P) attribution. "Branch Prediction Is Not a
// Solved Problem" observes that misprediction cost concentrates in a
// handful of static instructions; when Config.CollectH2P is set, the
// processor attributes every branch and value misprediction in the
// measured window to its static PC and Result.H2P reports the top-N
// offenders.
//
// The table is a fixed-size open-addressing hash map over uint64 PCs:
// no allocation and no map overhead on the (already rare) misprediction
// path. When the table saturates at 3/4 occupancy, new PCs are counted
// as dropped rather than evicting established entries — the top-N is
// exact for every PC the table admitted.

const (
	h2pTableSize = 1 << 12 // 4096 slots
	h2pTableMask = h2pTableSize - 1
	h2pMaxUsed   = h2pTableSize * 3 / 4
)

// defaultH2PTopN caps each Result.H2P entry list.
const defaultH2PTopN = 16

type h2pTable struct {
	pcs     [h2pTableSize]uint64 // 0 = empty slot
	counts  [h2pTableSize]uint64
	used    int
	dropped uint64
}

func (t *h2pTable) clear() {
	t.pcs = [h2pTableSize]uint64{}
	t.counts = [h2pTableSize]uint64{}
	t.used = 0
	t.dropped = 0
}

// bump attributes one misprediction to pc.
func (t *h2pTable) bump(pc uint64) {
	key := pc
	if key == 0 {
		key = ^uint64(0) // 0 marks empty slots; remap PC 0
	}
	i := (key * 0x9E3779B97F4A7C15) >> (64 - 12) & h2pTableMask
	for {
		switch t.pcs[i] {
		case key:
			t.counts[i]++
			return
		case 0:
			if t.used >= h2pMaxUsed {
				t.dropped++
				return
			}
			t.pcs[i] = key
			t.counts[i] = 1
			t.used++
			return
		}
		i = (i + 1) & h2pTableMask
	}
}

// topN extracts the n highest-count entries, ordered by count
// descending then PC ascending — a total order, so the extraction is
// deterministic.
func (t *h2pTable) topN(n int) []H2PEntry {
	out := make([]H2PEntry, 0, t.used)
	for i, pc := range t.pcs {
		if pc == 0 {
			continue
		}
		real := pc
		if real == ^uint64(0) {
			real = 0
		}
		out = append(out, H2PEntry{PC: real, Mispredicts: t.counts[i]})
	}
	sortH2P(out)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func sortH2P(s []H2PEntry) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Mispredicts != s[j].Mispredicts {
			return s[i].Mispredicts > s[j].Mispredicts
		}
		return s[i].PC < s[j].PC
	})
}

// H2PEntry is one static instruction's misprediction count in the
// measured window.
type H2PEntry struct {
	PC          uint64
	Mispredicts uint64
}

// H2PResult carries per-PC misprediction attribution. It hangs off
// Result as a pointer (nil unless Config.CollectH2P) so Result stays
// comparable with == for the bit-identity differential tests.
type H2PResult struct {
	// Branches and Values are the top-N mispredicting static branch /
	// value-predicted instructions, count descending.
	Branches []H2PEntry
	Values   []H2PEntry
	// BranchPCsDropped / ValuePCsDropped count mispredictions at PCs the
	// fixed-size attribution table had no room for (top-N entries are
	// still exact).
	BranchPCsDropped uint64
	ValuePCsDropped  uint64
}

// MergeH2P combines two attribution results (used by the sampled-run
// reducer to aggregate per-interval H2P). Entries are coalesced by PC
// and re-ranked; because inputs are already top-N truncated, merged
// counts are lower bounds for PCs that fell outside some interval's
// top-N. topN caps the merged entry lists (0 = unlimited).
func MergeH2P(dst, src *H2PResult, topN int) *H2PResult {
	if src == nil {
		return dst
	}
	if dst == nil {
		c := *src
		c.Branches = append([]H2PEntry(nil), src.Branches...)
		c.Values = append([]H2PEntry(nil), src.Values...)
		return &c
	}
	dst.Branches = mergeEntries(dst.Branches, src.Branches, topN)
	dst.Values = mergeEntries(dst.Values, src.Values, topN)
	dst.BranchPCsDropped += src.BranchPCsDropped
	dst.ValuePCsDropped += src.ValuePCsDropped
	return dst
}

func mergeEntries(a, b []H2PEntry, topN int) []H2PEntry {
	byPC := make(map[uint64]uint64, len(a)+len(b))
	for _, e := range a {
		byPC[e.PC] += e.Mispredicts
	}
	for _, e := range b {
		byPC[e.PC] += e.Mispredicts
	}
	out := make([]H2PEntry, 0, len(byPC))
	//bebop:allow detlint -- iteration order cannot escape: entries are re-sorted by sortH2P (total order on count, then PC) before truncation
	for pc, n := range byPC {
		out = append(out, H2PEntry{PC: pc, Mispredicts: n})
	}
	sortH2P(out)
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}
