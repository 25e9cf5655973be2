package planner

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"corep/internal/obs"
)

// TestConcurrentPlanningAndRegistry stresses the planner under -race:
// serving goroutines plan and observe while a reader keeps taking the
// introspection surfaces and flushing the obs registry the serving
// threads count into. The planner holds one mutex and the registry is
// internally synchronized; any torn read shows up here.
func TestConcurrentPlanningAndRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Config{Shape: testShape(), Seed: 5})
	var wg sync.WaitGroup

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				nt := 1 << (i % 8)
				d := p.Choose(nt)
				p.Observe(d.Kind, nt, int64(30+i%40))
				reg.Histogram(fmt.Sprintf("%s|SF=1|NT=%d|retrieve.io", d.Kind, nt), obs.IOBuckets).Observe(float64(30 + i%40))
				if i%17 == 0 {
					p.ObserveHitRate(float64(i%10) / 10)
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = p.Stats()
			_ = p.Warmth()
			_ = p.Candidates()
			reg.WriteText(io.Discard)
		}
	}()

	wg.Wait()
	if s := p.Stats(); s.Choices != 4*500 || s.Observed != 4*500 {
		t.Fatalf("lost work under concurrency: %d choices, %d observed, want %d", s.Choices, s.Observed, 4*500)
	}
}
