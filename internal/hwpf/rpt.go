package hwpf

// state is the stride automaton's state.
type state uint8

const (
	initial state = iota
	transient
	steady
	noPred
)

// strideEntry is one stride-automaton entry: the load's previous address,
// its candidate stride and the automaton state.
type strideEntry struct {
	prev   uint64
	stride int64
	st     state
}

// strideTable is the Chen & Baer reference prediction table: a PC-indexed
// set-associative table walking the INIT/TRANSIENT/STEADY/NO_PRED
// automaton, predicting distance strides ahead while STEADY.
//
// The rpt and baer-chen schemes differ only in the match rule. baer-chen
// compares strides by raw equality, as the textbook does, so a repeated
// zero delta is a "correct" prediction and reaches STEADY (though a zero
// stride never predicts); rpt's match also requires a non-zero stride.
type strideTable struct {
	name string
	// zeroMatches selects baer-chen's match rule.
	zeroMatches bool
	tags        tagStore
	tab         []strideEntry
	c           Counters
}

func newStrideTable(name string, zeroMatches bool, cfg Config) *strideTable {
	tags := newTagStore(cfg)
	return &strideTable{name: name, zeroMatches: zeroMatches, tags: tags, tab: make([]strideEntry, len(tags.tags))}
}

// Name returns the scheme's registry name.
func (p *strideTable) Name() string { return p.name }

// Counters returns the table's lifetime counters.
func (p *strideTable) Counters() Counters {
	c := p.c
	c.Replaced = p.tags.replaced
	return c
}

// Train records one execution of the static load identified by pc at
// address addr. A table hit advances the automaton:
//
//	INIT      correct -> STEADY      incorrect -> stride := delta, TRANSIENT
//	TRANSIENT correct -> STEADY      incorrect -> stride := delta, NO_PRED
//	STEADY    correct -> STEADY      incorrect -> INIT (stride kept)
//	NO_PRED   correct -> TRANSIENT   incorrect -> stride := delta, NO_PRED
//
// where "correct" means the new delta matches the stored stride.
func (p *strideTable) Train(pc, addr uint64) (uint64, bool) {
	i, hit := p.tags.find(pc)
	e := &p.tab[i]
	if !hit {
		*e = strideEntry{prev: addr}
		return 0, false
	}
	delta := int64(addr) - int64(e.prev)
	correct := delta == e.stride && (delta != 0 || p.zeroMatches)
	switch e.st {
	case initial:
		if correct {
			e.st = steady
		} else {
			e.stride = delta
			e.st = transient
		}
	case transient:
		if correct {
			e.st = steady
		} else {
			e.stride = delta
			e.st = noPred
		}
	case steady:
		if !correct {
			e.st = initial
		}
	case noPred:
		if correct {
			e.st = transient
		} else {
			e.stride = delta
		}
	}
	e.prev = addr
	if e.st != steady || e.stride == 0 {
		return 0, false
	}
	return p.c.predict(addr, e.stride*distance)
}
