package buffer

import (
	"errors"
	"testing"

	"corep/internal/disk"
)

func TestRetryRecoversTransientRead(t *testing.T) {
	d := disk.NewSim()
	p := New(d, 4)
	id, _ := d.Alloc()
	// Fail the first two reads of the page, then recover — exactly what
	// a default fault-plan episode (length 2) produces.
	plan := disk.NewFaultPlan(disk.FaultPlanConfig{Seed: 1, PTransient: 1, TransientLen: 2, MaxFaults: 1})
	d.SetFault(plan.Fn())
	buf, err := p.Pin(id)
	if err != nil {
		t.Fatalf("pin under transient episode: %v", err)
	}
	p.Unpin(id, false)
	_ = buf
	st := p.Stats()
	if st.Retries != 2 || st.Recovered != 1 {
		t.Fatalf("stats = %+v, want Retries=2 Recovered=1", st)
	}
	if ds := d.Stats(); ds.Reads != 1 {
		t.Fatalf("disk reads = %d, want 1 (failed attempts are not charged)", ds.Reads)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	d := disk.NewSim()
	p := New(d, 4)
	id, _ := d.Alloc()
	// Episode longer than the three attempts: the pin must fail cleanly.
	plan := disk.NewFaultPlan(disk.FaultPlanConfig{Seed: 1, PTransient: 1, TransientLen: 5, MaxFaults: 1})
	d.SetFault(plan.Fn())
	if _, err := p.Pin(id); !disk.IsTransient(err) {
		t.Fatalf("want transient fault after retry exhaustion, got %v", err)
	}
	if p.PinnedCount() != 0 {
		t.Fatal("failed pin left a pinned frame")
	}
	st := p.Stats()
	if st.Retries != 2 || st.Recovered != 0 {
		t.Fatalf("stats = %+v, want Retries=2 Recovered=0", st)
	}
}

func TestRetryNeverRetriesPermanent(t *testing.T) {
	d := disk.NewSim()
	p := New(d, 4)
	id, _ := d.Alloc()
	calls := 0
	d.SetFault(func(op string, _ disk.PageID) error {
		if op == "read" {
			calls++
			return disk.ErrPermanent
		}
		return nil
	})
	if _, err := p.Pin(id); !errors.Is(err, disk.ErrPermanent) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("permanent fault was retried %d times", calls-1)
	}
	if st := p.Stats(); st.Retries != 0 {
		t.Fatalf("stats counted retries for a permanent fault: %+v", st)
	}
}

func TestRetryRecoversEvictionWriteBack(t *testing.T) {
	d := disk.NewSim()
	p := New(d, 1)
	a, _ := d.Alloc()
	b, _ := d.Alloc()
	buf, err := p.Pin(a)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 7
	p.Unpin(a, true)
	plan := disk.NewFaultPlan(disk.FaultPlanConfig{Seed: 1, PTransient: 1, TransientLen: 1, MaxFaults: 1})
	d.SetFault(plan.Fn())
	// Pinning b evicts dirty a; the write-back hits one transient fault
	// and must recover invisibly.
	if _, err := p.Pin(b); err != nil {
		t.Fatalf("pin with transient write-back fault: %v", err)
	}
	p.Unpin(b, false)
	d.SetFault(nil)
	got := make([]byte, disk.PageSize)
	if err := d.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatal("write-back retry lost dirty data")
	}
	if st := p.Stats(); st.Recovered != 1 {
		t.Fatalf("stats = %+v, want Recovered=1", st)
	}
}

func TestRetryRecoversAlloc(t *testing.T) {
	d := disk.NewSim()
	p := New(d, 2)
	plan := disk.NewFaultPlan(disk.FaultPlanConfig{Seed: 1, PTransient: 1, TransientLen: 1, MaxFaults: 1})
	d.SetFault(plan.Fn())
	id, _, err := p.NewPage()
	if err != nil {
		t.Fatalf("NewPage with transient alloc fault: %v", err)
	}
	p.Unpin(id, true)
	if st := p.Stats(); st.Retries != 1 || st.Recovered != 1 {
		t.Fatalf("stats = %+v, want Retries=1 Recovered=1", st)
	}
}
