package hashfile

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"corep/internal/buffer"
	"corep/internal/disk"
)

// TestQuickMapEquivalence drives the hash file with generated operation
// sequences and checks it against a plain map.
func TestQuickMapEquivalence(t *testing.T) {
	f := func(seed int64, buckets uint8, nOps uint16) bool {
		b := int(buckets%16) + 1
		n := int(nOps%600) + 1
		rng := rand.New(rand.NewSource(seed))
		pool := buffer.New(disk.NewSim(), 32)
		file, err := Create(pool, b)
		if err != nil {
			return false
		}
		model := map[int64][]byte{}
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(100)) - 50
			switch rng.Intn(4) {
			case 0, 1: // put
				v := make([]byte, rng.Intn(60))
				rng.Read(v)
				if err := file.Put(k, v); err != nil {
					return false
				}
				model[k] = v
			case 2: // delete
				err := file.Delete(k)
				if _, ok := model[k]; ok {
					if err != nil {
						return false
					}
					delete(model, k)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 3: // get
				v, err := file.Get(k)
				if want, ok := model[k]; ok {
					if err != nil || !bytes.Equal(v, want) {
						return false
					}
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			}
		}
		// Final state equivalence: as many entries as the model, and
		// each of the model's under its key.
		if file.Count() != len(model) {
			return false
		}
		for k, want := range model {
			if v, err := file.Get(k); err != nil || !bytes.Equal(v, want) {
				return false
			}
		}
		return pool.PinnedCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
