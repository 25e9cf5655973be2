package corep

import (
	"fmt"
	"testing"

	"corep/internal/testutil"
)

// TestRetrievePathValuesSurviveFrameReuse: RetrievePath ranges over the
// parent relation with a leaf pinned and re-enters the pool from the
// callback (Resolve, the member probes) on a pool of a few frames. The
// values it returns — names are strings cut out of pages — must own
// their bytes: junking every frame afterwards changes nothing, and no
// pin is left behind, also when the callback fails midway.
func TestRetrievePathValuesSurviveFrameReuse(t *testing.T) {
	db, groups := buildScatteredDB(t, 6)
	for name, retrieve := range map[string]func() ([]Value, error){
		"RetrievePath": func() ([]Value, error) { return db.RetrievePath("grp", "members", "name", 1, int64(groups)) },
		"Query":        func() ([]Value, error) { return firstColumn(db.Query(`retrieve (grp.members.name)`)) },
	} {
		vals, err := retrieve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		testutil.AssertNoLeaks(t, db.core.Pool)
		if len(vals) != groups*4 {
			t.Fatalf("%s: %d values", name, len(vals))
		}
		want := make([]string, len(vals))
		for i, v := range vals {
			want[i] = fmt.Sprint(v)
		}
		testutil.ScribbleFrames(t, db.core.Pool)
		for i, v := range vals {
			if fmt.Sprint(v) != want[i] {
				t.Fatalf("%s: value %d changed from %s to %v when the frames were overwritten", name, i, want[i], v)
			}
		}
		if got := vals[0].Str; got != "item-0001-padding-to-spread-pages" {
			t.Fatalf("%s: first member = %q", name, got)
		}
	}
	// A callback error (no such attribute) must release the held leaf.
	if _, err := db.RetrievePath("grp", "members", "no-such-attr", 1, int64(groups)); err == nil {
		t.Fatal("bad attribute accepted")
	}
	testutil.AssertNoLeaks(t, db.core.Pool)
}

func firstColumn(res *QueryResult, err error) ([]Value, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Value, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0]
	}
	return out, nil
}
