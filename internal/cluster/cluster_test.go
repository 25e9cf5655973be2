package cluster

import (
	"math/rand"
	"testing"

	"corep/internal/object"
)

func oid(k int64) object.OID { return object.NewOID(2, k) }

// fragmentsOf returns, for one unit, the number of distinct physical
// homes its subobjects live at — 1 means the unit is perfectly
// clustered, higher values are the degradation of §3.3 case [3] ("to
// fetch the subobjects of o₀, we have to do at least two random
// accesses").
func fragmentsOf(a *Assignment, u object.Unit) int {
	homes := map[int64]struct{}{}
	for _, oid := range u {
		homes[a.Owner[oid]] = struct{}{}
	}
	return len(homes)
}

// meanFragments averages fragmentsOf over all units: the summary
// statistic behind Figure 7's degradation curve.
func meanFragments(a *Assignment, units []object.Unit) float64 {
	if len(units) == 0 {
		return 0
	}
	total := 0
	for _, u := range units {
		total += fragmentsOf(a, u)
	}
	return float64(total) / float64(len(units))
}

func TestShareFactorOneIdeal(t *testing.T) {
	// Case [1]: each unit has one user and units are disjoint: every
	// subobject clusters with its only parent, nothing scattered.
	units := []object.Unit{
		{oid(0), oid(1)},
		{oid(2), oid(3)},
		{oid(4)},
	}
	users := [][]int64{{10}, {20}, {30}}
	a, err := Assign(units, users, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Scattered != 0 {
		t.Fatalf("scattered = %d", a.Scattered)
	}
	for i, u := range units {
		if fragmentsOf(a, u) != 1 {
			t.Fatalf("unit %d fragmented", i)
		}
		for _, o := range u {
			if a.Owner[o] != users[i][0] {
				t.Fatalf("subobject %v owned by %d", o, a.Owner[o])
			}
		}
	}
}

func TestOverlapOneWholeUnits(t *testing.T) {
	// Case [2]: disjoint units shared by several parents. The whole unit
	// lands with a single home chosen among its users.
	units := []object.Unit{
		{oid(0), oid(1), oid(2)},
		{oid(3), oid(4)},
	}
	users := [][]int64{{10, 20, 30}, {40, 50}}
	a, err := Assign(units, users, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Scattered != 0 {
		t.Fatalf("scattered = %d", a.Scattered)
	}
	for i, u := range units {
		if fragmentsOf(a, u) != 1 {
			t.Fatalf("unit %d fragmented", i)
		}
		home := a.Owner[u[0]]
		found := false
		for _, user := range users[i] {
			if home == user {
				found = true
			}
		}
		if !found {
			t.Fatalf("unit %d home %d not among its users %v", i, home, users[i])
		}
	}
}

func TestOverlapScatters(t *testing.T) {
	// Case [3], the paper's U₋₁/U₀/U₁ example: overlapping units leave
	// later units fragmented.
	units := []object.Unit{
		{oid(-3 + 3), oid(-2 + 3), oid(-1 + 3), oid(0 + 3), oid(1 + 3)}, // U-1: s-3..s1 (shifted +3)
		{oid(0 + 3), oid(1 + 3), oid(2 + 3), oid(3 + 3), oid(4 + 3)},    // U0: s0..s4
		{oid(3 + 3), oid(4 + 3), oid(5 + 3), oid(6 + 3), oid(7 + 3)},    // U1: s3..s7
	}
	users := [][]int64{{-1}, {0}, {1}}
	// Run with several seeds: whatever the processing order, some unit
	// must fragment because the middle unit overlaps both others.
	anyScattered := false
	for seed := int64(0); seed < 10; seed++ {
		a, err := Assign(units, users, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if a.Scattered > 0 {
			anyScattered = true
		}
		// Every subobject has exactly one owner.
		if len(a.Owner) != 11 {
			t.Fatalf("owners = %d, want 11 distinct subobjects", len(a.Owner))
		}
		maxFrag := 0
		for _, u := range units {
			if f := fragmentsOf(a, u); f > maxFrag {
				maxFrag = f
			}
		}
		if maxFrag < 2 {
			t.Fatalf("seed %d: no unit fragmented despite overlap", seed)
		}
	}
	if !anyScattered {
		t.Fatal("overlap never scattered a subobject")
	}
}

func TestEverySubobjectPlacedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// 100 overlapping units over 150 subobjects.
	var units []object.Unit
	var users [][]int64
	for i := 0; i < 100; i++ {
		u := make(object.Unit, 5)
		for j := range u {
			u[j] = oid(int64(rng.Intn(150)))
		}
		units = append(units, u)
		users = append(users, []int64{int64(i)})
	}
	a, err := Assign(units, users, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Total placements + scattered slots == total slots.
	slots := 0
	distinct := map[object.OID]struct{}{}
	for _, u := range units {
		slots += len(u)
		for _, o := range u {
			distinct[o] = struct{}{}
		}
	}
	if len(a.Owner) != len(distinct) {
		t.Fatalf("owners = %d, distinct = %d", len(a.Owner), len(distinct))
	}
	if a.Scattered != slots-len(distinct) {
		t.Fatalf("scattered = %d, want %d", a.Scattered, slots-len(distinct))
	}
}

func TestMeanFragmentsMonotoneInOverlap(t *testing.T) {
	// Higher overlap ⇒ more fragmentation (the mechanism behind Fig 7).
	mean := func(overlap int) float64 {
		rng := rand.New(rand.NewSource(13))
		const nChild = 600
		slots := make([]int64, 0, nChild*overlap)
		for c := 0; c < nChild; c++ {
			for k := 0; k < overlap; k++ {
				slots = append(slots, int64(c))
			}
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		var units []object.Unit
		var users [][]int64
		for i := 0; i+5 <= len(slots); i += 5 {
			u := make(object.Unit, 5)
			for j := 0; j < 5; j++ {
				u[j] = oid(slots[i+j])
			}
			units = append(units, u)
			users = append(users, []int64{int64(i)})
		}
		a, err := Assign(units, users, rng)
		if err != nil {
			t.Fatal(err)
		}
		return meanFragments(a, units)
	}
	m1, m5 := mean(1), mean(5)
	if m1 > 1.2 {
		t.Fatalf("overlap 1 mean fragments = %f, want ≈1", m1)
	}
	if m5 < 2 {
		t.Fatalf("overlap 5 mean fragments = %f, want ≥2", m5)
	}
	if m5 <= m1 {
		t.Fatalf("fragmentation not monotone: %f vs %f", m1, m5)
	}
}

func TestAssignErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Assign([]object.Unit{{oid(1)}}, nil, rng); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := Assign([]object.Unit{{oid(1)}}, [][]int64{{}}, rng); err == nil {
		t.Fatal("unit without users accepted")
	}
}
