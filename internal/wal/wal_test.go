package wal

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"corep/internal/disk"
)

func pageImage(fill byte) []byte {
	img := make([]byte, disk.PageSize)
	for i := range img {
		img[i] = fill
	}
	return img
}

// applied collects replayed images keyed by page, last writer wins.
type applied map[disk.PageID][]byte

func (a applied) apply(id disk.PageID, img []byte) error {
	a[id] = append([]byte(nil), img...)
	return nil
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dev := NewMemDevice(0)
	l, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendPage(1, pageImage(0xAA)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendPage(2, pageImage(0xBB)); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendCommit(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	got := applied{}
	res, err := Recover(NewMemDeviceBytes(dev.Crash(0)), got.apply)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 2 || len(res.Commits) != 1 || res.Commits[0] != 1 {
		t.Fatalf("unexpected recovery result: %+v", res)
	}
	if res.DiscardedBytes != 0 || res.DiscardedRecords != 0 {
		t.Fatalf("clean log reported discards: %+v", res)
	}
	if !bytes.Equal(got[1], pageImage(0xAA)) || !bytes.Equal(got[2], pageImage(0xBB)) {
		t.Fatal("replayed images differ from appended images")
	}
}

func TestUncommittedBatchDiscarded(t *testing.T) {
	dev := NewMemDevice(0)
	l, _ := Open(dev)
	l.AppendPage(1, pageImage(1))
	lsn, _ := l.AppendCommit(1)
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	// Second batch: page image appended, commit record never written —
	// the crash hit between them. Even fully synced it must not replay.
	l.AppendPage(2, pageImage(2))
	if err := l.Sync(l.Stats().HeadLSN); err != nil {
		t.Fatal(err)
	}
	got := applied{}
	res, err := Recover(NewMemDeviceBytes(dev.Crash(1<<20)), got.apply)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Commits) != 1 || res.Replayed != 1 {
		t.Fatalf("want only the committed batch replayed, got %+v", res)
	}
	if res.DiscardedRecords != 1 {
		t.Fatalf("want the uncommitted image discarded as a record, got %+v", res)
	}
	if _, ok := got[2]; ok {
		t.Fatal("uncommitted page image was replayed")
	}
}

func TestTornTailDiscarded(t *testing.T) {
	dev := NewMemDevice(0)
	l, _ := Open(dev)
	l.AppendPage(1, pageImage(1))
	lsn1, _ := l.AppendCommit(1)
	if err := l.Sync(lsn1); err != nil {
		t.Fatal(err)
	}
	syncedEnd := lsn1
	// Second commit appended but never synced; the crash keeps an
	// arbitrary prefix of it. Every cut point must recover commit 1 and
	// only commit 1... except a cut past the full second commit record,
	// which legitimately recovers both.
	l.AppendPage(2, pageImage(2))
	lsn2, _ := l.AppendCommit(2)
	unsynced := lsn2 - syncedEnd
	for keep := int64(0); keep <= unsynced; keep += 7 {
		surv := dev.Crash(keep)
		got := applied{}
		res, err := Recover(NewMemDeviceBytes(surv), got.apply)
		if err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
		if len(res.Commits) == 0 || res.Commits[0] != 1 {
			t.Fatalf("keep=%d: lost the acknowledged commit: %+v", keep, res)
		}
		if keep < unsynced && len(res.Commits) > 1 {
			t.Fatalf("keep=%d: replayed a commit whose record was torn: %+v", keep, res)
		}
		if keep < unsynced && res.DiscardedBytes != keep {
			t.Fatalf("keep=%d: want %d discarded tail bytes, got %d", keep, keep, res.DiscardedBytes)
		}
	}
	// The full unsynced tail surviving intact replays both commits.
	res, err := Recover(NewMemDeviceBytes(dev.Crash(unsynced)), applied{}.apply)
	if err != nil || len(res.Commits) != 2 {
		t.Fatalf("full tail: want both commits, got %+v (%v)", res, err)
	}
}

func TestCorruptMiddleStopsScan(t *testing.T) {
	dev := NewMemDevice(0)
	l, _ := Open(dev)
	l.AppendPage(1, pageImage(1))
	mid, _ := l.AppendCommit(1)
	l.AppendPage(2, pageImage(2))
	end, _ := l.AppendCommit(2)
	l.Sync(end)
	surv := dev.Crash(0)
	surv[mid+10] ^= 0xFF // flip a bit inside the second batch
	res, err := Recover(NewMemDeviceBytes(surv), applied{}.apply)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Commits) != 1 || res.Commits[0] != 1 {
		t.Fatalf("want scan to stop at the corrupt record, got %+v", res)
	}
	if res.DiscardedBytes == 0 {
		t.Fatal("corrupt tail not counted as discarded")
	}
}

func TestMetaRecordRecovered(t *testing.T) {
	dev := NewMemDevice(0)
	l, _ := Open(dev)
	l.AppendMeta([]byte("v1"))
	lsn, _ := l.AppendCommit(1)
	l.Sync(lsn)
	l.AppendMeta([]byte("v2"))
	lsn2, _ := l.AppendCommit(2)
	l.Sync(lsn2)
	// A third meta with no commit must not become current.
	l.AppendMeta([]byte("v3-uncommitted"))
	l.Sync(l.Stats().HeadLSN)
	res, err := Recover(NewMemDeviceBytes(dev.Crash(1<<20)), applied{}.apply)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Meta) != "v2" {
		t.Fatalf("want last committed meta v2, got %q", res.Meta)
	}
}

func TestTruncateEmptiesLog(t *testing.T) {
	dev := NewMemDevice(0)
	l, _ := Open(dev)
	l.AppendPage(1, pageImage(1))
	lsn, _ := l.AppendCommit(1)
	l.Sync(lsn)
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if sz, _ := dev.Size(); sz != 0 {
		t.Fatalf("device not empty after truncate: %d bytes", sz)
	}
	res, err := Recover(dev, applied{}.apply)
	if err != nil || len(res.Commits) != 0 {
		t.Fatalf("truncated log replayed something: %+v (%v)", res, err)
	}
	// The log keeps working after truncation.
	lsn, err = l.AppendCommit(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	res, _ = Recover(NewMemDeviceBytes(dev.Crash(0)), applied{}.apply)
	if len(res.Commits) != 1 || res.Commits[0] != 2 {
		t.Fatalf("post-truncate commit not recovered: %+v", res)
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := Open(dev)
	l.AppendPage(3, pageImage(3))
	lsn, _ := l.AppendCommit(7)
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	dev2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	got := applied{}
	res, err := Recover(dev2, got.apply)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Commits) != 1 || res.Commits[0] != 7 || !bytes.Equal(got[3], pageImage(3)) {
		t.Fatalf("file round trip failed: %+v", res)
	}
}

func TestSyncFailureDoesNotAcknowledge(t *testing.T) {
	dev := NewMemDevice(0)
	l, _ := Open(dev)
	l.AppendPage(1, pageImage(1))
	lsn, _ := l.AppendCommit(1)
	dev.FailNextSync()
	if err := l.Sync(lsn); err == nil {
		t.Fatal("want sync failure surfaced")
	}
	if got := l.Stats().DurableLSN; got != 0 {
		t.Fatalf("durable watermark advanced past a failed sync: %d", got)
	}
	// Retry succeeds and durability is established.
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().DurableLSN; got < lsn {
		t.Fatalf("durable %d < lsn %d after successful retry", got, lsn)
	}
}

// TestGroupCommitBatchesFsyncs drives concurrent committers against a
// device with a real sync delay and asserts fsyncs were amortized:
// strictly fewer fsyncs than commits, and every commit durable.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	const clients, perClient = 8, 25
	dev := NewMemDevice(200 * time.Microsecond)
	l, _ := Open(dev)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	var seq struct {
		sync.Mutex
		n uint64
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				seq.Lock()
				seq.n++
				s := seq.n
				if _, err := l.AppendPage(disk.PageID(s%16+1), pageImage(byte(s))); err != nil {
					seq.Unlock()
					errs <- err
					return
				}
				lsn, err := l.AppendCommit(s)
				seq.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if err := l.Sync(lsn); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Commits != clients*perClient {
		t.Fatalf("want %d commits, got %d", clients*perClient, st.Commits)
	}
	if st.Fsyncs >= st.Commits {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d commits", st.Fsyncs, st.Commits)
	}
	if st.MaxGroup < 2 {
		t.Fatalf("no fsync ever covered more than one commit (max group %d)", st.MaxGroup)
	}
	res, err := Recover(NewMemDeviceBytes(dev.Crash(0)), applied{}.apply)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Commits) != clients*perClient {
		t.Fatalf("want all %d acknowledged commits durable, got %d", clients*perClient, len(res.Commits))
	}
}

func TestDecodeRejectsBadRecords(t *testing.T) {
	dev := NewMemDevice(0)
	l, _ := Open(dev)
	lsn, _ := l.AppendCommit(1)
	l.Sync(lsn)
	size, _ := dev.Size()
	for name, mutate := range map[string]func([]byte){
		"crc":  func(b []byte) { b[0] ^= 0xFF },
		"len":  func(b []byte) { b[4] ^= 0x01 },
		"lsn":  func(b []byte) { b[8] ^= 0x01 },
		"type": func(b []byte) { b[16] = 0x7F },
	} {
		surv := dev.Crash(0)
		mutate(surv)
		if _, ok := decodeAt(NewMemDeviceBytes(surv), 0, size); ok {
			t.Errorf("%s mutation accepted", name)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Commits: 10, Fsyncs: 4}
	if g := s.AvgGroup(); g != 2.5 {
		t.Fatalf("AvgGroup = %v", g)
	}
}
