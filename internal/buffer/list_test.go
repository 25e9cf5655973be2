package buffer

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"corep/internal/disk"
)

var updateTrace = flag.Bool("update", false, "rewrite testdata/eviction_trace.json from this checkout")

const evictionTracePath = "testdata/eviction_trace.json"

// evictionTrace replays a scripted pin/unpin trace (seeded, so the same
// on every checkout) against an 8-frame pool over 40 pages and returns
// the victim of every eviction, in order. The script mixes plain and
// scan pins, holds up to three pins at a time and dirties some frames,
// so it exercises the list's front, back and middle.
func evictionTrace(t *testing.T) []int {
	t.Helper()
	p, _, ids := poolWith(t, 8, 40)
	index := make(map[disk.PageID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	resident := func() map[disk.PageID]bool {
		out := make(map[disk.PageID]bool)
		s := p.shards[0]
		s.mu.Lock()
		for id := range s.frames {
			out[id] = true
		}
		s.mu.Unlock()
		return out
	}
	rng := rand.New(rand.NewSource(42))
	var held []disk.PageID
	var victims []int
	for step := 0; step < 4000; step++ {
		if len(held) == 3 || (len(held) > 0 && rng.Intn(3) == 0) {
			i := rng.Intn(len(held))
			p.Unpin(held[i], rng.Intn(4) == 0)
			held = append(held[:i], held[i+1:]...)
			continue
		}
		// Skewed page choice: a hot eighth plus a uniform tail, so hits
		// and misses both occur.
		i := rng.Intn(len(ids))
		if rng.Intn(2) == 0 {
			i = rng.Intn(len(ids) / 8)
		}
		before := resident()
		var err error
		if rng.Intn(5) == 0 {
			_, err = p.PinScan(ids[i])
		} else {
			_, err = p.Pin(ids[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, ids[i])
		after := resident()
		for id := range before {
			if !after[id] {
				victims = append(victims, index[id])
			}
		}
	}
	for _, id := range held {
		p.Unpin(id, false)
	}
	if p.PinnedCount() != 0 {
		t.Fatalf("script leaked %d pins", p.PinnedCount())
	}
	return victims
}

// TestEvictionTraceGolden pins the replacement list's observable
// behaviour: the scripted trace must evict exactly the pages, in exactly
// the order, recorded in testdata/eviction_trace.json. The golden is
// recorded in a checkout of the parent commit, never from the change
// under test:
//
//	cp internal/buffer/list_test.go internal/buffer/policy_test.go /root/scratch/parent/internal/buffer/
//	(cd /root/scratch/parent && go test ./internal/buffer -run TestEvictionTraceGolden -update)
//	cp /root/scratch/parent/internal/buffer/testdata/eviction_trace.json internal/buffer/testdata/
func TestEvictionTraceGolden(t *testing.T) {
	got := map[string][]int{"lru": evictionTrace(t)}
	if len(got["lru"]) < 500 {
		t.Fatalf("only %d evictions, the script is too tame", len(got["lru"]))
	}
	if *updateTrace {
		raw, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(evictionTracePath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(evictionTracePath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for pol, g := range got {
		if !reflect.DeepEqual(g, want[pol]) {
			for i := range g {
				if i >= len(want[pol]) || g[i] != want[pol][i] {
					t.Fatalf("%s: eviction %d differs from the recorded trace (got %d evictions, want %d)", pol, i, len(g), len(want[pol]))
				}
			}
			t.Fatalf("%s: %d evictions, recorded trace has %d", pol, len(g), len(want[pol]))
		}
	}
}

// TestPinUnpinHitAllocatesNothing: the hit path — find the frame, take
// it off the replacement list, put it back — must not touch the heap.
func TestPinUnpinHitAllocatesNothing(t *testing.T) {
	p, _, ids := poolWith(t, 4, 2)
	touch(t, p, ids[0])
	touch(t, p, ids[1])
	n := testing.AllocsPerRun(200, func() {
		if _, err := p.Pin(ids[0]); err != nil {
			t.Fatal(err)
		}
		p.Unpin(ids[0], false)
	})
	if n != 0 {
		t.Fatalf("Pin+Unpin hit allocates %v objects", n)
	}
}
