package reclust

import (
	"math"
	"sort"
	"sync"
)

// DefaultHalfLife is the decay half-life in logical ticks (one tick per
// fed query): a parent untouched for this many queries has lost half
// its heat.
const DefaultHalfLife = 512

// KeyHeat is one heat-table entry, normalized to the current tick.
type KeyHeat struct {
	Key  int64
	Heat float64
}

// Tracker is a bounded table of exponentially decayed access counters
// keyed by parent key (= cluster#/home-parent). Safe for concurrent
// use: the serving tier feeds it from query spans while the
// reorganizer reads TopN.
//
// Decay is applied lazily: an entry stores (heat, lastTick) and is
// renormalized to the current tick only when touched or compared. Heat
// is linear in the touch weights, and every entry decays by the same
// factor per tick, so scaling all weights by a constant scales every
// heat by that constant — orderings are scale-invariant.
type Tracker struct {
	mu        sync.Mutex
	cap       int
	decay     float64 // per-tick survival factor, in (0,1)
	tick      uint64
	cells     map[int64]*heatCell
	touches   int64
	evictions int64
}

type heatCell struct {
	h    float64
	last uint64
}

// NewTracker creates a tracker holding at most capacity entries with
// the given half-life in ticks (<= 0 selects DefaultHalfLife).
func NewTracker(capacity, halfLife int) *Tracker {
	if capacity < 1 {
		capacity = 1
	}
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	return &Tracker{
		cap:   capacity,
		decay: math.Exp2(-1 / float64(halfLife)),
		cells: make(map[int64]*heatCell),
	}
}

// Cap returns the table's capacity.
func (t *Tracker) Cap() int { return t.cap }

// Touch adds weight w to key's heat and advances the clock one tick.
func (t *Tracker) Touch(key int64, w float64) {
	t.mu.Lock()
	t.tick++
	t.touchLocked(key, w)
	t.mu.Unlock()
}

// TouchRange adds weight w to every key in [lo, hi] under one tick —
// the shape of a NumTop retrieve range.
func (t *Tracker) TouchRange(lo, hi int64, w float64) {
	if hi < lo {
		return
	}
	t.mu.Lock()
	t.tick++
	for k := lo; k <= hi; k++ {
		t.touchLocked(k, w)
	}
	t.mu.Unlock()
}

func (t *Tracker) touchLocked(key int64, w float64) {
	t.touches++
	if c, ok := t.cells[key]; ok {
		c.h = c.h*math.Pow(t.decay, float64(t.tick-c.last)) + w
		c.last = t.tick
		return
	}
	if len(t.cells) >= t.cap {
		t.evictColdestLocked()
	}
	t.cells[key] = &heatCell{h: w, last: t.tick}
}

// evictColdestLocked removes the entry with the smallest heat
// normalized to the current tick. Ties break on the larger key so
// eviction is deterministic.
func (t *Tracker) evictColdestLocked() {
	var (
		victim   int64
		coldest  = math.Inf(1)
		haveCold = false
	)
	for k, c := range t.cells {
		n := t.normLocked(c)
		if !haveCold || n < coldest || (n == coldest && k > victim) {
			victim, coldest, haveCold = k, n, true
		}
	}
	if haveCold {
		delete(t.cells, victim)
		t.evictions++
	}
}

func (t *Tracker) normLocked(c *heatCell) float64 {
	return c.h * math.Pow(t.decay, float64(t.tick-c.last))
}

// TopN returns the n hottest keys, hottest first (ties on the smaller
// key), each with its normalized heat.
func (t *Tracker) TopN(n int) []KeyHeat {
	t.mu.Lock()
	out := make([]KeyHeat, 0, len(t.cells))
	for k, c := range t.cells {
		out = append(out, KeyHeat{Key: k, Heat: t.normLocked(c)})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Heat != out[j].Heat {
			return out[i].Heat > out[j].Heat
		}
		return out[i].Key < out[j].Key
	})
	if n >= 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Len returns the number of tracked keys.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cells)
}

// Counters returns (touches, evictions).
func (t *Tracker) Counters() (touches, evictions int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.touches, t.evictions
}
