// Package bpred implements the paper's branch prediction hardware: a
// hybrid predictor built from a 2K-entry gshare, a 2K-entry bimodal
// table and a 1K-entry selector, plus a 2048-entry 4-way BTB
// (Table 2 of the paper).
//
// All tables use standard 2-bit saturating counters. The predictor is
// updated speculatively with the real outcome at resolution time (the
// CPU model resolves branches at execute), and the global history is
// repaired on mispredictions by the CPU's flush path.
package bpred

// counter2 is a 2-bit saturating counter; values 2 and 3 predict taken.
type counter2 uint8

func (c counter2) taken() bool { return c >= 2 }

func (c counter2) update(taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Config sizes the predictor tables. All sizes must be powers of two.
type Config struct {
	BimodalEntries  int
	GshareEntries   int
	SelectorEntries int
	BTBSets         int
	BTBWays         int
}

// PaperConfig returns the Table 2 predictor configuration: hybrid
// 2K gshare + 2K bimodal + 1K selector, 2048-entry 4-way BTB.
func PaperConfig() Config {
	return Config{
		BimodalEntries:  2048,
		GshareEntries:   2048,
		SelectorEntries: 1024,
		BTBSets:         512, // 512 sets x 4 ways = 2048 entries
		BTBWays:         4,
	}
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Predictor is the hybrid direction predictor plus BTB.
type Predictor struct {
	cfg      Config
	bimodal  []counter2
	gshare   []counter2
	selector []counter2 // >=2 selects gshare
	history  uint32
	histMask uint32

	// The BTB tables hold every set's ways back to back: way w of set
	// s is at index s*BTBWays+w (see btbBase).
	btbTags    []uint64
	btbTargets []uint64
	btbLRU     []uint8

	lookups     uint64
	mispredicts uint64
}

// New builds a predictor; it panics on non-power-of-two table sizes
// (a configuration programming error).
func New(cfg Config) *Predictor {
	for _, v := range [...]int{cfg.BimodalEntries, cfg.GshareEntries, cfg.SelectorEntries, cfg.BTBSets} {
		if !isPow2(v) {
			panic("bpred: table sizes must be powers of two")
		}
	}
	if cfg.BTBWays <= 0 {
		panic("bpred: BTBWays must be positive")
	}
	p := &Predictor{
		cfg:      cfg,
		bimodal:  make([]counter2, cfg.BimodalEntries),
		gshare:   make([]counter2, cfg.GshareEntries),
		selector: make([]counter2, cfg.SelectorEntries),
		histMask: uint32(cfg.GshareEntries - 1),
	}
	// Weakly taken initial state converges quickly either way.
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.selector {
		p.selector[i] = 2
	}
	n := cfg.BTBSets * cfg.BTBWays
	p.btbTags = make([]uint64, n)
	p.btbTargets = make([]uint64, n)
	p.btbLRU = make([]uint8, n)
	return p
}

func (p *Predictor) bimodalIdx(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.BimodalEntries-1))
}

func (p *Predictor) gshareIdx(pc uint64) int {
	return int(((uint32(pc>>2) ^ p.history) & p.histMask))
}

func (p *Predictor) selectorIdx(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.SelectorEntries-1))
}

// Prediction carries everything needed to later update the predictor.
type Prediction struct {
	Target     uint64 // 0 if the BTB missed
	history    uint32 // history snapshot for repair
	Taken      bool
	usedGshare bool
}

// Predict returns the hybrid direction prediction and BTB target for a
// branch at pc. The global history register is updated speculatively.
func (p *Predictor) Predict(pc uint64) Prediction {
	p.lookups++
	bi := p.bimodal[p.bimodalIdx(pc)].taken()
	gs := p.gshare[p.gshareIdx(pc)].taken()
	useG := p.selector[p.selectorIdx(pc)].taken()
	pred := Prediction{usedGshare: useG, history: p.history}
	if useG {
		pred.Taken = gs
	} else {
		pred.Taken = bi
	}
	pred.Target = p.btbLookup(pc)
	// Speculative history update; repaired via Prediction.history on a
	// misprediction (Resolve does the repair).
	p.history = ((p.history << 1) | b2u(pred.Taken)) & p.histMask
	return pred
}

// Resolve updates the predictor with the actual outcome and reports
// whether the prediction was wrong. On a wrong direction or a taken
// branch with unknown/incorrect target, the history is repaired with
// the actual outcome.
func (p *Predictor) Resolve(pc uint64, pr Prediction, taken bool, target uint64) (mispredicted bool) {
	// Direction tables are updated with the real outcome. gshare is
	// indexed with the history the prediction used.
	gIdx := int((uint32(pc>>2) ^ pr.history) & p.histMask)
	bIdx := p.bimodalIdx(pc)
	gOld := p.gshare[gIdx].taken()
	bOld := p.bimodal[bIdx].taken()
	p.gshare[gIdx] = p.gshare[gIdx].update(taken)
	p.bimodal[bIdx] = p.bimodal[bIdx].update(taken)
	// Selector trains toward the component that was right, when they
	// disagree.
	if gOld != bOld {
		sIdx := p.selectorIdx(pc)
		p.selector[sIdx] = p.selector[sIdx].update(gOld == taken)
	}
	mispredicted = pr.Taken != taken
	if taken {
		if pr.Target == 0 || pr.Target != target {
			mispredicted = true
		}
		p.btbInsert(pc, target)
	}
	if mispredicted {
		p.mispredicts++
		// Repair the global history: replay it as if the correct
		// outcome had been shifted in.
		p.history = ((pr.history << 1) | b2u(taken)) & p.histMask
	}
	return mispredicted
}

// btbBase returns the index of way 0 of pc's BTB set.
func (p *Predictor) btbBase(pc uint64) int {
	return int((pc>>2)&uint64(p.cfg.BTBSets-1)) * p.cfg.BTBWays
}

func (p *Predictor) btbLookup(pc uint64) uint64 {
	b := p.btbBase(pc)
	for w := 0; w < p.cfg.BTBWays; w++ {
		if p.btbTags[b+w] == pc && pc != 0 {
			p.touchBTB(b, w)
			return p.btbTargets[b+w]
		}
	}
	return 0
}

func (p *Predictor) btbInsert(pc, target uint64) {
	b := p.btbBase(pc)
	// Hit: update target.
	for w := 0; w < p.cfg.BTBWays; w++ {
		if p.btbTags[b+w] == pc {
			p.btbTargets[b+w] = target
			p.touchBTB(b, w)
			return
		}
	}
	// Miss: replace LRU way (highest age).
	victim, worst := 0, uint8(0)
	for w := 0; w < p.cfg.BTBWays; w++ {
		if p.btbTags[b+w] == 0 {
			victim = w
			break
		}
		if p.btbLRU[b+w] >= worst {
			victim, worst = w, p.btbLRU[b+w]
		}
	}
	p.btbTags[b+victim] = pc
	p.btbTargets[b+victim] = target
	p.touchBTB(b, victim)
}

// touchBTB ages all ways of the set whose way 0 is at b and marks way w
// most recently used.
func (p *Predictor) touchBTB(b, w int) {
	for i := b; i < b+p.cfg.BTBWays; i++ {
		if p.btbLRU[i] < 255 {
			p.btbLRU[i]++
		}
	}
	p.btbLRU[b+w] = 0
}

// ResetStats zeroes the lookup/mispredict counters (tables are kept).
// Used at the end of simulation warm-up.
func (p *Predictor) ResetStats() { p.lookups, p.mispredicts = 0, 0 }

// Lookups returns the number of Predict calls.
func (p *Predictor) Lookups() uint64 { return p.lookups }

// Mispredicts returns the number of resolved mispredictions.
func (p *Predictor) Mispredicts() uint64 { return p.mispredicts }

// MispredictRate returns mispredicts/lookups (0 when no lookups).
func (p *Predictor) MispredictRate() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.mispredicts) / float64(p.lookups)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
