package reclust

import (
	"math"
	"math/rand"
	"testing"
)

// heatOf is key's normalized heat as TopN reports it, 0 if untracked.
func heatOf(tr *Tracker, key int64) float64 {
	for _, kh := range tr.TopN(-1) {
		if kh.Key == key {
			return kh.Heat
		}
	}
	return 0
}

// The decayed-counter contract: heat is linear in touch weights, so
// scaling every weight by a constant must leave the TopN ordering
// unchanged. Property-tested over random touch schedules.
func TestHeatOrderingScaleInvariant(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		keys := 1 + rng.Intn(12)
		touches := 20 + rng.Intn(200)
		scale := math.Exp(rng.Float64()*8 - 4) // 0.018 .. 54

		a := NewTracker(64, 1+rng.Intn(100))
		b := NewTracker(64, 0)
		b.decay = a.decay // same half-life, only weights scaled

		type ev struct {
			key int64
			w   float64
		}
		sched := make([]ev, touches)
		for i := range sched {
			sched[i] = ev{key: int64(rng.Intn(keys)), w: rng.Float64() + 0.01}
		}
		for _, e := range sched {
			a.Touch(e.key, e.w)
			b.Touch(e.key, e.w*scale)
		}

		ta, tb := a.TopN(-1), b.TopN(-1)
		if len(ta) != len(tb) {
			t.Fatalf("trial %d: len %d != %d", trial, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i].Key != tb[i].Key {
				t.Fatalf("trial %d: ordering diverged at rank %d: key %d vs %d (scale %g)",
					trial, i, ta[i].Key, tb[i].Key, scale)
			}
			// Heats themselves scale linearly.
			if ta[i].Heat > 0 {
				ratio := tb[i].Heat / ta[i].Heat
				if math.Abs(ratio-scale) > 1e-6*scale {
					t.Fatalf("trial %d: heat not linear: ratio %g want %g", trial, ratio, scale)
				}
			}
		}
	}
}

// The bounded table must evict the key with the smallest normalized
// heat when a new key arrives at capacity.
func TestHeatEvictsColdestFirst(t *testing.T) {
	tr := NewTracker(3, 1000) // long half-life: heat ~ touch count
	tr.Touch(1, 1)
	tr.Touch(1, 1)
	tr.Touch(1, 1)
	tr.Touch(2, 1)
	tr.Touch(2, 1)
	tr.Touch(3, 1) // coldest
	tr.Touch(4, 1) // evicts 3
	if heatOf(tr, 3) != 0 {
		t.Fatalf("key 3 should have been evicted, heat %g", heatOf(tr, 3))
	}
	for _, k := range []int64{1, 2, 4} {
		if heatOf(tr, k) == 0 {
			t.Fatalf("key %d wrongly evicted", k)
		}
	}
	if _, ev := tr.Counters(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}

	// Decay can flip who is coldest: an old high count loses to a
	// recent touch once enough ticks pass.
	tr2 := NewTracker(2, 2) // half-life 2 ticks: heat fades fast
	tr2.Touch(10, 1)
	tr2.Touch(10, 1)
	tr2.Touch(10, 1)
	for i := 0; i < 40; i++ {
		tr2.Touch(20, 1)
	}
	// Key 10's heat has decayed through 40 ticks; inserting key 30 at
	// capacity must evict 10, not the recently hot 20.
	tr2.Touch(30, 1)
	if heatOf(tr2, 10) != 0 {
		t.Fatalf("stale key 10 should have been evicted, heat %g", heatOf(tr2, 10))
	}
	if heatOf(tr2, 20) == 0 {
		t.Fatalf("hot key 20 wrongly evicted")
	}
}

// Randomized cross-check: at every eviction, the victim had minimal
// normalized heat among all resident keys.
func TestHeatEvictionPropertyRandom(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 104729))
		capN := 2 + rng.Intn(6)
		tr := NewTracker(capN, 1+rng.Intn(64))

		// Shadow model: exact same math, unbounded.
		type cell struct {
			h    float64
			last uint64
		}
		shadow := map[int64]*cell{}
		var tick uint64
		norm := func(c *cell) float64 {
			return c.h * math.Pow(tr.decay, float64(tick-c.last))
		}

		for step := 0; step < 300; step++ {
			key := int64(rng.Intn(20))
			w := rng.Float64() + 0.01
			tick++
			if c, ok := shadow[key]; ok {
				c.h = norm(c) + w
				c.last = tick
			} else {
				if len(shadow) >= capN {
					// Expected victim: minimal normalized heat, ties to
					// the larger key.
					var victim int64
					coldest := math.Inf(1)
					have := false
					for k, c := range shadow {
						n := norm(c)
						if !have || n < coldest || (n == coldest && k > victim) {
							victim, coldest, have = k, n, true
						}
					}
					delete(shadow, victim)
				}
				shadow[key] = &cell{h: w, last: tick}
			}
			tr.Touch(key, w)

			if tr.Len() != len(shadow) {
				t.Fatalf("trial %d step %d: len %d != shadow %d", trial, step, tr.Len(), len(shadow))
			}
			for k, c := range shadow {
				got := heatOf(tr, k)
				want := norm(c)
				if math.Abs(got-want) > 1e-9*(1+want) {
					t.Fatalf("trial %d step %d key %d: heat %g want %g", trial, step, k, got, want)
				}
			}
		}
	}
}

func TestHeatTouchRange(t *testing.T) {
	tr := NewTracker(16, 100)
	tr.TouchRange(5, 8, 2)
	for k := int64(5); k <= 8; k++ {
		if heatOf(tr, k) != 2 {
			t.Fatalf("key %d heat %g, want 2", k, heatOf(tr, k))
		}
	}
	if heatOf(tr, 4) != 0 || heatOf(tr, 9) != 0 {
		t.Fatalf("range touch leaked outside [5,8]")
	}
	tr.TouchRange(9, 3, 1) // inverted range: no-op
	if heatOf(tr, 6) != 2*math.Pow(tr.decay, 0) {
		// only one tick elapsed total; heat still exactly 2
		t.Fatalf("inverted range advanced state")
	}
	top := tr.TopN(2)
	if len(top) != 2 || top[0].Key != 5 || top[1].Key != 6 {
		t.Fatalf("TopN tie-break wrong: %+v", top)
	}
}
