package wal

import (
	"sync"

	"corep/internal/disk"
)

// Stats counts log events.
type Stats struct {
	Appends    int64 // records appended (page images + commits + meta)
	PageImages int64 // page-image records appended
	Commits    int64 // commit records appended
	Fsyncs     int64 // device syncs issued
	MaxGroup   int64 // most commits made durable by a single fsync
	HeadLSN    int64 // next append offset
	DurableLSN int64 // durable through this offset
	Truncates  int64 // checkpoint truncations
}

// AvgGroup returns commits per fsync — the group-commit amortization
// factor (1.0 means every commit paid its own fsync).
func (s Stats) AvgGroup() float64 {
	if s.Fsyncs == 0 {
		return 0
	}
	return float64(s.Commits) / float64(s.Fsyncs)
}

// Log is the append side of the redo log. Appends are written through
// to the device immediately (cheap: the OS buffers them) under the log
// mutex; durability is a separate step so concurrent committers share
// fsyncs.
//
// Group commit protocol: a committer calls Sync(lsn) after appending
// its commit record. If the log is already durable past lsn it returns
// at once. Otherwise the first committer to arrive becomes the leader:
// it notes the current head, releases the mutex, issues one device
// sync, and advances the durable watermark to the noted head — which
// covers every record appended before the sync started, including
// commit records other committers appended while a previous sync was
// in flight. Followers wait on a condition variable instead of issuing
// their own fsync. The longer a sync takes, the more commits pile into
// the next group: fsyncs per commit fall as concurrency rises.
type Log struct {
	mu      sync.Mutex
	cond    *sync.Cond
	dev     Device
	head    int64 // next append offset
	durable int64 // synced through this offset
	syncing bool
	// pending holds the end-offsets of appended commit records not yet
	// durable, in append order — the group-size accounting.
	pending []int64

	stats Stats
}

// Open attaches a Log to a device, appending after its current
// contents. Run Recover (and truncate) first when the device may hold
// a previous life's log.
func Open(dev Device) (*Log, error) {
	size, err := dev.Size()
	if err != nil {
		return nil, err
	}
	l := &Log{dev: dev, head: size, durable: size}
	l.cond = sync.NewCond(&l.mu)
	return l, nil
}

// append writes one framed record at the head and returns the offset
// just past it (the LSN to wait on for durability).
func (l *Log) append(typ byte, pageID disk.PageID, payload []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := encodeRecord(nil, l.head, typ, pageID, payload)
	if _, err := l.dev.WriteAt(rec, l.head); err != nil {
		return 0, err
	}
	l.head += int64(len(rec))
	l.stats.Appends++
	switch typ {
	case recPage:
		l.stats.PageImages++
	case recCommit:
		l.stats.Commits++
		l.pending = append(l.pending, l.head)
	}
	return l.head, nil
}

// AppendPage logs a full page image. The image becomes effective at
// the next commit record; recovery discards images with no following
// commit.
func (l *Log) AppendPage(id disk.PageID, img []byte) (int64, error) {
	return l.append(recPage, id, img)
}

// AppendCommit logs a commit record carrying seq, ending the atomic
// batch of page images appended since the previous commit record.
func (l *Log) AppendCommit(seq uint64) (int64, error) {
	return l.append(recCommit, 0, commitPayload(seq))
}

// AppendMeta logs an opaque metadata blob; it becomes the current
// metadata when the following commit record lands.
func (l *Log) AppendMeta(blob []byte) (int64, error) {
	return l.append(recMeta, 0, blob)
}

// Sync blocks until the log is durable through lsn (group commit; see
// the type comment). An error means durability through lsn could not
// be established — the caller must not acknowledge its commit.
func (l *Log) Sync(lsn int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < lsn {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		target := l.head
		l.mu.Unlock()
		err := l.dev.Sync()
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.cond.Broadcast()
			return err
		}
		l.durable = target
		l.stats.Fsyncs++
		var group int64
		for len(l.pending) > 0 && l.pending[0] <= target {
			l.pending = l.pending[1:]
			group++
		}
		if group > l.stats.MaxGroup {
			l.stats.MaxGroup = group
		}
		l.cond.Broadcast()
	}
	return nil
}

// Truncate discards the whole log — the checkpoint contract: every
// page image the log carried is durable in the page file before this
// is called. The device is truncated and synced so a crash after the
// checkpoint finds an empty log, not a stale one.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.dev.Truncate(0); err != nil {
		return err
	}
	l.head, l.durable = 0, 0
	l.pending = l.pending[:0]
	l.stats.Truncates++
	return nil
}

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.HeadLSN = l.head
	s.DurableLSN = l.durable
	return s
}

// Close closes the underlying device (no implicit sync: an unsynced
// tail is exactly what a crash leaves, and orderly shutdown goes
// through a checkpoint that truncates the log anyway).
func (l *Log) Close() error {
	return l.dev.Close()
}
