package planner

import (
	"sync"
	"testing"
)

// TestConcurrentPlanning stresses the planner under -race: serving
// goroutines plan and feed hit rates while a reader keeps taking the
// introspection surfaces. The planner holds one mutex; any torn read
// shows up here.
func TestConcurrentPlanning(t *testing.T) {
	p := New(Config{Shape: testShape()})
	var wg sync.WaitGroup

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				nt := 1 << (i % 8)
				d := p.Choose(nt)
				p.Observe(d.Kind, nt, int64(30+i%40))
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
			_ = warmthOf(p)
			_ = p.Candidates()
		}
	}()

	wg.Wait()
	if s := p.Stats(); s.Choices != 4*500 {
		t.Fatalf("lost work under concurrency: %d choices, want %d", s.Choices, 4*500)
	}
}
