package workload

import (
	"math/rand"
	"testing"

	"corep/internal/object"
	"corep/internal/tuple"
)

// TestZipfSkewConcentrates checks the sampler's shape: at θ = 1.1 the
// lowest decile of the range must absorb the bulk of the draws, while
// θ just above 0 stays near-uniform.
func TestZipfSkewConcentrates(t *testing.T) {
	const n, draws = 1000, 20000
	rng := rand.New(rand.NewSource(7))
	lowDecile := func(theta float64) float64 {
		tab := newZipfTable(n, theta)
		hits := 0
		for i := 0; i < draws; i++ {
			if tab.draw(rng) < n/10 {
				hits++
			}
		}
		return float64(hits) / draws
	}
	uniform := lowDecile(1e-9) // θ→0 degenerates to uniform
	skewed := lowDecile(1.1)
	if uniform < 0.07 || uniform > 0.13 {
		t.Fatalf("near-zero θ lowest-decile share = %.3f, want ≈0.10", uniform)
	}
	if skewed < 0.5 {
		t.Fatalf("θ=1.1 lowest-decile share = %.3f, want ≥0.50", skewed)
	}
}

// TestZipfThetaZeroSequenceUnchanged pins the compatibility guarantee:
// a θ=0 config must generate byte-for-byte the sequence the pre-zipf
// generator produced (same rng stream, same draws), because every
// figure and bench baseline depends on it.
func TestZipfThetaZeroSequenceUnchanged(t *testing.T) {
	cfg := Config{NumParents: 400, Seed: 11, CacheUnits: 50}
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Build(Config{NumParents: 400, Seed: 11, CacheUnits: 50, ZipfTheta: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sa := a.GenSequence(60, 0.4, 8)
	sb := b.GenSequence(60, 0.4, 8)
	if len(sa) != len(sb) {
		t.Fatalf("sequence lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Kind != sb[i].Kind || sa[i].Lo != sb[i].Lo || sa[i].Hi != sb[i].Hi || sa[i].AttrIdx != sb[i].AttrIdx {
			t.Fatalf("op %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
		for j := range sa[i].Targets {
			if sa[i].Targets[j] != sb[i].Targets[j] || sa[i].NewRet1[j] != sb[i].NewRet1[j] {
				t.Fatalf("op %d target %d differs", i, j)
			}
		}
	}
}

// TestZipfSequenceSkewsParents checks the generator end to end: with a
// skewed config, retrieve ranges concentrate on low parent keys and
// update targets concentrate on hot-parent unit members.
func TestZipfSequenceSkewsParents(t *testing.T) {
	db, err := Build(Config{NumParents: 2000, Seed: 3, ZipfTheta: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ops := db.GenSequence(400, 0.4, 8)
	lowLo, retrieves := 0, 0
	targets := make(map[object.OID]int)
	for _, op := range ops {
		switch op.Kind {
		case OpRetrieve:
			retrieves++
			if op.Lo < int64(db.Cfg.NumParents/10) {
				lowLo++
			}
		case OpUpdate:
			for _, o := range op.Targets {
				targets[o]++
			}
		}
	}
	if share := float64(lowLo) / float64(retrieves); share < 0.35 {
		t.Fatalf("θ=0.99 low-decile retrieve share = %.3f, want ≥0.35", share)
	}
	// Update-target reuse: skew must produce repeated targets (a uniform
	// draw over 10k children almost never repeats in a few hundred picks).
	max := 0
	for _, c := range targets {
		if c > max {
			max = c
		}
	}
	if max < 3 {
		t.Fatalf("hottest update target hit %d times, want ≥3 under skew", max)
	}
	// Every target must still be a valid child OID.
	for o := range targets {
		if _, err := db.ChildByRelID(o.Rel()); err != nil {
			t.Fatalf("update target %v: %v", o, err)
		}
	}
}

// TestApplyUpdateVersionedAndDrain exercises the versioned update path
// against the base apply: staging through the store and draining back
// must leave the base B-trees exactly as the in-place path would.
func TestApplyUpdateVersionedAndDrain(t *testing.T) {
	db, err := Build(Config{NumParents: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.EnableVersioning()

	op := db.genUpdate()
	if len(op.Targets) == 0 {
		t.Fatal("empty update op")
	}
	// EnableVersioning published the empty bootstrap epoch 1, so the
	// first real update commits as epoch 2.
	marked := uint64(0)
	u, err := db.ApplyUpdate(op, db.ApplyUpdateBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Publish(u, nil, func(e uint64) { marked = e }); err != nil {
		t.Fatal(err)
	}
	if marked != 2 {
		t.Fatalf("mark hook saw epoch %d, want 2", marked)
	}
	// Visible through a snapshot, not yet in the base tree.
	sn := db.Versions.Begin()
	last := len(op.Targets) - 1
	if v, ok := sn.Read(op.Targets[last]); !ok || v != op.NewRet1[last] {
		t.Fatalf("snapshot read = %d,%v want %d,true", v, ok, op.NewRet1[last])
	}
	sn.Release()

	n, err := db.DrainVersions(db.ApplyUpdateBase)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || db.Versions.Pending() != 0 {
		t.Fatalf("drain applied %d, pending %d", n, db.Versions.Pending())
	}
	// Base tree now holds the drained values (last-writer for dup targets).
	want := make(map[object.OID]int64)
	for i, o := range op.Targets {
		want[o] = op.NewRet1[i]
	}
	for o, wv := range want {
		rel, err := db.ChildByRelID(o.Rel())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := rel.Tree.Get(o.Key())
		if err != nil {
			t.Fatal(err)
		}
		v, err := tuple.DecodeField(db.ChildSchema, rec, FieldRet1)
		if err != nil {
			t.Fatal(err)
		}
		if v.Int != wv {
			t.Fatalf("base ret1 for %v = %d, want %d", o, v.Int, wv)
		}
	}

	// Invalid target aborts cleanly and installs nothing.
	bad := Op{Kind: OpUpdate, Targets: []object.OID{object.NewOID(9999, 0)}, NewRet1: []int64{1}}
	if _, err := db.ApplyUpdate(bad, db.ApplyUpdateBase); err == nil {
		t.Fatal("invalid relation id: want error")
	}
	st := db.Versions.Stats()
	if st.Aborts != 1 || st.Pending != 0 {
		t.Fatalf("after abort: %+v", st)
	}
}
