package integration

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bebop/internal/branch"
	"bebop/internal/core"
	"bebop/internal/predictor"
	"bebop/internal/util"
)

// pinSteps is the length of the predictor pin stream: one update per
// step for every predictor, past the 2^18 updates after which TAGE,
// VTAGE and D-VTAGE age their usefulness counters.
const pinSteps = 1<<18 + 1<<12

// pinSites is the number of static sites the stream cycles through.
const pinSites = 96

// pinStream is a seeded stream of predictor events under a
// pseudo-random global branch history. Each step visits one static
// site, which produces a value and then resolves a conditional branch.
// A site's value is constant, strided, a function of the last three
// branch outcomes, or strided with occasional random jumps; a site's
// branch follows a per-site period, flipped with probability 1/16.
type pinStream struct {
	rng    *util.RNG
	hist   branch.History
	visits [pinSites]uint64
	last   [pinSites]uint64 // the site's previous value
	seen   [pinSites]bool
	drift  [pinSites]uint64 // kind 3's running value
	recent uint64           // the last three branch outcomes
	step   int
}

func newPinStream() *pinStream {
	s := &pinStream{rng: util.NewRNG(0x9E7A1)}
	s.hist.EnableFolds()
	return s
}

// pinSite is one step's static site and outcome.
type pinSite struct {
	pc     uint64 // the site's instruction (and block) address
	uop    int
	value  uint64
	prev   uint64 // the site's previous value, if hasPrev
	has    bool
	brPC   uint64
	taken  bool
	target uint64
}

// next draws the step's site and value; the branch is pushed by
// advance, after the predictors have read the history.
func (s *pinStream) next() pinSite {
	k := s.step % pinSites
	if s.rng.OneIn(8) {
		k = s.rng.Intn(pinSites) // a detour keeps the visit order from being a pure cycle
	}
	v := s.visits[k]
	c := util.Mix64(uint64(k) + 1)
	var value uint64
	switch k % 4 {
	case 0:
		value = c
	case 1:
		value = c + v*uint64(8*(k%5+1))
	case 2:
		value = c + util.Mix64(s.recent)&0xFFFF
	default:
		if s.rng.OneIn(64) {
			s.drift[k] = s.rng.Uint64()
		}
		s.drift[k] += 4
		value = s.drift[k]
	}
	st := pinSite{
		pc:    0x400000 + 64*uint64(k),
		uop:   k % 3,
		value: value,
		prev:  s.last[k],
		has:   s.seen[k],
		brPC:  0x400000 + 64*uint64(k) + 44,
	}
	period := uint64(k%7 + 2)
	st.taken = v%period != 0
	if s.rng.OneIn(16) {
		st.taken = !st.taken
	}
	st.target = 0x400000 + 64*uint64((k+1+k%3)%pinSites)
	s.visits[k]++
	s.last[k], s.seen[k] = value, true
	return st
}

// advance pushes the step's branch into the history.
func (s *pinStream) advance(st pinSite) {
	s.hist.Push(st.taken, st.target)
	s.recent = (s.recent<<1 | b2u(st.taken)) & 7
	s.step++
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// pinHash accumulates every prediction of one predictor.
type pinHash struct {
	h                          hash.Hash64
	predicted, confident, used uint64
	buf                        [9]byte
}

func newPinHash() *pinHash { return &pinHash{h: fnv.New64a()} }

// add hashes one prediction: whether one was made, whether it was
// confident, and its value; used counts confident correct ones.
func (p *pinHash) add(predicted, confident bool, value, actual uint64) {
	p.buf[0] = byte(b2u(predicted) | b2u(confident)<<1)
	binary.LittleEndian.PutUint64(p.buf[1:], value)
	p.h.Write(p.buf[:])
	if predicted {
		p.predicted++
	}
	if confident {
		p.confident++
		if value == actual {
			p.used++
		}
	}
}

func (p *pinHash) line(name string) string {
	return fmt.Sprintf("%s predicted=%d confident=%d confident_correct=%d hash=%016x\n",
		name, p.predicted, p.confident, p.used, p.h.Sum64())
}

// pinInst drives a per-instruction value predictor with the oracle
// previous value of each site, as the pipeline's InstVP does.
func pinInst(name string) (string, error) {
	vp, err := core.NewInstPredictor(name)
	if err != nil {
		return "", err
	}
	s, ph := newPinStream(), newPinHash()
	for i := 0; i < pinSteps; i++ {
		st := s.next()
		o := vp.Predict(st.pc, st.uop, &s.hist, st.prev, st.has)
		ph.add(o.Predicted, o.Predicted && o.Confident, o.Value, st.value)
		vp.Update(&o, st.value)
		s.advance(st)
	}
	return ph.line(name), nil
}

// pinTAGE drives the default TAGE branch predictor with every step's
// branch.
func pinTAGE() string {
	t := branch.NewTAGE(branch.DefaultTAGEConfig())
	s, ph := newPinStream(), newPinHash()
	for i := 0; i < pinSteps; i++ {
		st := s.next()
		p := t.Predict(st.brPC, &s.hist)
		ph.add(true, true, b2u(p.Taken), b2u(st.taken))
		t.Update(&p, st.taken)
		s.advance(st)
	}
	return ph.line("TAGE")
}

// pinDVTAGE drives a Medium-geometry block D-VTAGE: each step's site is
// a fetch block whose first three slots produce the site's value and two
// fixed offsets of it, and the predictor's own retired last values feed
// the prediction (no speculative window).
func pinDVTAGE() string {
	d := predictor.NewDVTAGE(core.MediumConfig().Predictor)
	s, ph := newPinStream(), newPinHash()
	for i := 0; i < pinSteps; i++ {
		st := s.next()
		bl := d.Lookup(st.pc, &s.hist)
		u := predictor.UpdateBlock{Lookup: bl}
		for m := 0; m < 3; m++ {
			actual := st.value + uint64(m)<<12
			has := bl.LVTHit && bl.HasLast[m]
			value, conf := d.PredictSlot(&bl, m, bl.Last[m], has)
			ph.add(has, conf, value, actual)
			u.Slots[m] = predictor.SlotUpdate{
				Used: true, Actual: actual, Predicted: value,
				WasPredicted: has, ByteTag: uint8(4 * m),
			}
		}
		ph.h.Write([]byte{byte(bl.Provider)})
		d.Update(&u)
		s.advance(st)
	}
	return ph.line("D-VTAGE/Medium")
}

// TestPredictorPin pins every value predictor the simulator builds by
// name, the TAGE branch predictor and a Medium-geometry block D-VTAGE
// below the pipeline, each through its own Lookup/Update calls over
// the same seeded stream of more than 2^18 updates: constant, strided
// and branch-correlated values under a pseudo-random branch history.
// Every prediction is hashed into testdata/predictor_pin.golden, so a
// refactor of the predictor tables (indexing, tag matching, allocation,
// usefulness aging, confidence) must leave the file byte-identical; a
// fidelity change regenerates it with
//
//	go test ./internal/integration -run TestPredictorPin -update
func TestPredictorPin(t *testing.T) {
	var got strings.Builder
	for _, name := range core.AllPredictorNames() {
		line, err := pinInst(name)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(line)
	}
	got.WriteString(pinTAGE())
	got.WriteString(pinDVTAGE())

	golden := filepath.Join("testdata", "predictor_pin.golden")
	if *updatePin {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("predictions moved; a fidelity change regenerates the golden with -update\ngolden:\n%s\nnow:\n%s", want, got.String())
	}
}
