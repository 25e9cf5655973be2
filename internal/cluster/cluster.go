// Package cluster computes the clustering assignment C ⊆ OS of §3.3:
// which parent object each subobject is physically clustered with.
//
// The paper's three regimes fall out of one algorithm:
//
//	[1] ShareFactor = 1: every subobject belongs to one unit used by one
//	    parent → C = S, ideal clustering.
//	[2] OverlapFactor = 1: units are disjoint, shared in their entirety
//	    by UseFactor parents → each unit is clustered, whole, with one
//	    parent "randomly chosen from UseFactor possibilities".
//	[3] OverlapFactor > 1: units overlap, so a subobject already placed
//	    by an earlier unit cannot be placed again; later units end up
//	    scattered across several physical locations.
package cluster

import (
	"fmt"
	"math/rand"

	"corep/internal/object"
)

// Assignment is the computed clustering C plus bookkeeping the
// experiments and tests use.
type Assignment struct {
	// Owner maps each subobject OID to the key of the parent it is
	// clustered with. Every subobject that appears in at least one unit
	// is assigned exactly one owner.
	Owner map[object.OID]int64

	// HomeParent maps each unit index to the parent key chosen as the
	// unit's home (the o of §3.3 case [2]).
	HomeParent []int64

	// Scattered counts subobject slots that could not be placed with
	// their unit's home because an earlier unit had already placed them.
	Scattered int
}

// Assign computes the clustering assignment. units[i] lists unit i's
// subobjects; usersOf[i] lists the keys of the parents that reference
// unit i (each unit must have at least one user). Units are processed in
// a random order, and each unit's home parent is chosen uniformly from
// its users — "In the absence of any knowledge, o should [be] randomly
// chosen from UseFactor possibilities" (§3.3 [2]).
func Assign(units []object.Unit, usersOf [][]int64, rng *rand.Rand) (*Assignment, error) {
	if len(units) != len(usersOf) {
		return nil, fmt.Errorf("cluster: %d units but %d user lists", len(units), len(usersOf))
	}
	a := &Assignment{
		Owner:      make(map[object.OID]int64),
		HomeParent: make([]int64, len(units)),
	}
	order := rng.Perm(len(units))
	for _, ui := range order {
		users := usersOf[ui]
		if len(users) == 0 {
			return nil, fmt.Errorf("cluster: unit %d has no users", ui)
		}
		home := users[rng.Intn(len(users))]
		a.HomeParent[ui] = home
		for _, oid := range units[ui] {
			if _, placed := a.Owner[oid]; placed {
				a.Scattered++
				continue
			}
			a.Owner[oid] = home
		}
	}
	return a, nil
}

// Rehome records that the subobjects in oids have been physically
// re-placed with parent home (an online reclustering migration batch).
// It is a pure delta on Owner — HomeParent keeps the load-time choice —
// and returns how many owners actually changed, so Owner tracks the
// post-migration layout.
func (a *Assignment) Rehome(oids []object.OID, home int64) int {
	moved := 0
	for _, oid := range oids {
		if a.Owner[oid] != home {
			a.Owner[oid] = home
			moved++
		}
	}
	return moved
}
