package disk

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// replay records every decision of a plan over a fixed op sequence.
func replay(p *FaultPlan, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		op := "read"
		if i%3 == 2 {
			op = "write"
		}
		err := p.decide(op, PageID(i%17+1))
		if err == nil {
			out = append(out, "ok")
		} else {
			out = append(out, err.Error())
		}
	}
	return out
}

func TestFaultPlanDeterministic(t *testing.T) {
	cfg := FaultPlanConfig{Seed: 7, PTransient: 0.05, PPermanent: 0.02, PSpike: 0.03, PTorn: 0.04, SpikeDur: time.Nanosecond}
	a := replay(NewFaultPlan(cfg), 500)
	b := replay(NewFaultPlan(cfg), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged: %q vs %q", i, a[i], b[i])
		}
	}
	other := replay(NewFaultPlan(FaultPlanConfig{Seed: 8, PTransient: 0.05, PPermanent: 0.02, PSpike: 0.03, PTorn: 0.04, SpikeDur: time.Nanosecond}), 500)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestFaultPlanTransientEpisode(t *testing.T) {
	// PTransient=1 means the very first op starts an episode.
	p := NewFaultPlan(FaultPlanConfig{Seed: 1, PTransient: 1, TransientLen: 3, MaxFaults: 1})
	for i := 0; i < 3; i++ {
		err := p.decide("read", 42)
		if !IsTransient(err) {
			t.Fatalf("episode op %d: want transient, got %v", i, err)
		}
	}
	if err := p.decide("read", 42); err != nil {
		t.Fatalf("after episode: want recovery, got %v", err)
	}
	st := p.Stats()
	if st.Transient != 3 || st.Injected != 1 {
		t.Fatalf("stats = %+v, want Transient=3 Injected=1", st)
	}
}

func TestFaultPlanPermanentSticks(t *testing.T) {
	p := NewFaultPlan(FaultPlanConfig{Seed: 1, PPermanent: 1, MaxFaults: 1})
	err := p.decide("read", 9)
	if !errors.Is(err, ErrPermanent) || !IsFault(err) {
		t.Fatalf("want permanent fault, got %v", err)
	}
	if IsTransient(err) {
		t.Fatal("permanent fault classified transient")
	}
	// Past MaxFaults, the condemned page still fails; others don't.
	if err := p.decide("write", 9); !errors.Is(err, ErrPermanent) {
		t.Fatalf("condemned page recovered: %v", err)
	}
	if err := p.decide("read", 10); err != nil {
		t.Fatalf("uncondemned page failed past cap: %v", err)
	}
	if err := p.decide("alloc", 9); err != nil {
		t.Fatalf("alloc of condemned id should pass (fresh page): %v", err)
	}
}

func TestFaultPlanSpike(t *testing.T) {
	var slept time.Duration
	p := NewFaultPlan(FaultPlanConfig{Seed: 1, PSpike: 1, SpikeDur: 123 * time.Microsecond})
	p.sleep = func(d time.Duration) { slept += d }
	if err := p.decide("read", 1); err != nil {
		t.Fatalf("spike returned error: %v", err)
	}
	if slept != 123*time.Microsecond {
		t.Fatalf("slept %v, want 123µs", slept)
	}
}

func TestSimTornWrite(t *testing.T) {
	d := NewSim()
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	full := bytes.Repeat([]byte{0xAB}, PageSize)
	if err := d.Write(id, full); err != nil {
		t.Fatal(err)
	}
	d.SetFault(func(op string, _ PageID) error {
		if op == "write" {
			return ErrTornWrite
		}
		return nil
	})
	next := bytes.Repeat([]byte{0xCD}, PageSize)
	if err := d.Write(id, next); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("want torn write error, got %v", err)
	}
	d.SetFault(nil)
	got := make([]byte, PageSize)
	if err := d.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:TornPrefix], next[:TornPrefix]) {
		t.Fatal("torn write did not persist the first half")
	}
	if !bytes.Equal(got[TornPrefix:], full[TornPrefix:]) {
		t.Fatal("torn write clobbered the second half")
	}
	// The recovery contract: rewriting the full page heals the tear.
	if err := d.Write(id, next); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, next) {
		t.Fatal("rewrite did not heal the torn page")
	}
}

func TestFileDiskFaultsAndTornWrite(t *testing.T) {
	d, err := OpenFile(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	full := bytes.Repeat([]byte{0x11}, PageSize)
	if err := d.Write(id, full); err != nil {
		t.Fatal(err)
	}

	d.SetFault(func(op string, _ PageID) error { return ErrTransient })
	buf := make([]byte, PageSize)
	if err := d.Read(id, buf); !IsTransient(err) {
		t.Fatalf("want transient read fault, got %v", err)
	}
	if _, err := d.Alloc(); !IsTransient(err) {
		t.Fatalf("want transient alloc fault, got %v", err)
	}

	d.SetFault(func(op string, _ PageID) error {
		if op == "write" {
			return ErrTornWrite
		}
		return nil
	})
	next := bytes.Repeat([]byte{0x22}, PageSize)
	if err := d.Write(id, next); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("want torn write error, got %v", err)
	}
	d.SetFault(nil)
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:TornPrefix], next[:TornPrefix]) || !bytes.Equal(buf[TornPrefix:], full[TornPrefix:]) {
		t.Fatal("file-backed torn write did not leave a half-new half-old page")
	}

	// Counters must not have charged the failed transfers.
	st := d.Stats()
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("failed ops were counted: %+v", st)
	}
}
