package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSlowLogRetainsSlowest(t *testing.T) {
	l := NewSlowLog(3, 0)
	for i := 1; i <= 10; i++ {
		l.Offer(SlowEntry{Name: "op", Duration: time.Duration(i) * time.Millisecond})
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("retained %d entries, want 3", len(snap))
	}
	for i, want := range []time.Duration{10, 9, 8} {
		if snap[i].Duration != want*time.Millisecond {
			t.Fatalf("entry %d duration = %s, want %s (snapshot must be slowest-first)", i, snap[i].Duration, want*time.Millisecond)
		}
	}
	st := l.Stats()
	if st.Observed != 10 || st.Retained != 3 || st.Dropped != 7 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSlowLogThresholdViolations(t *testing.T) {
	l := NewSlowLog(8, 5*time.Millisecond)
	for i := 1; i <= 10; i++ {
		l.Offer(SlowEntry{Duration: time.Duration(i) * time.Millisecond})
	}
	st := l.Stats()
	if st.Violations != 6 { // 5ms..10ms inclusive
		t.Fatalf("violations = %d, want 6", st.Violations)
	}
	over := 0
	for _, e := range l.Snapshot() {
		if e.OverSLO {
			over++
		}
	}
	if over != 6 {
		t.Fatalf("OverSLO entries = %d, want 6", over)
	}
}

func TestSlowLogNilIsNoOp(t *testing.T) {
	var l *SlowLog
	if l.Enabled() {
		t.Fatal("nil log reports enabled")
	}
	if l.Offer(SlowEntry{Duration: time.Second}) {
		t.Fatal("nil log retained an entry")
	}
	if l.Snapshot() != nil {
		t.Fatal("nil log snapshot non-nil")
	}
	if l.Stats() != (SlowLogStats{}) {
		t.Fatal("nil log stats non-zero")
	}
}

func TestSlowLogConcurrentOffer(t *testing.T) {
	l := NewSlowLog(16, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Offer(SlowEntry{Name: "op", Duration: time.Duration(i) * time.Microsecond})
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Observed != 8*200 {
		t.Fatalf("observed = %d, want %d", st.Observed, 8*200)
	}
	if st.Retained != 16 {
		t.Fatalf("retained = %d, want capacity 16", st.Retained)
	}
	snap := l.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Duration > snap[i-1].Duration {
			t.Fatal("snapshot not sorted slowest-first")
		}
	}
}
