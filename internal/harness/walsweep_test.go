package harness

import "testing"

func TestWALSweepGrouping(t *testing.T) {
	sweep := quickReport(t, "wal").(*WALSweep)
	for _, v := range sweep.Check() {
		t.Fatal(v)
	}
	for _, c := range sweep.Points {
		if c.Clients == 1 && c.FsyncsPerCommit != 1.0 {
			t.Errorf("single committer should pay one fsync per commit, got %.3f", c.FsyncsPerCommit)
		}
		if c.CommitQPS <= 0 {
			t.Errorf("c%d_b%d: nonpositive commit_qps", c.Clients, c.Batch)
		}
	}
	if got := len(sweep.Cells()); got != 3 {
		t.Fatalf("expected 3 bench cells, got %d", got)
	}
}
