package wal

import (
	"fmt"

	"corep/internal/disk"
)

// Result summarizes one recovery pass.
type Result struct {
	// Replayed counts page images applied (every image of every
	// committed batch, in log order).
	Replayed int `json:"replayed"`
	// Commits lists the commit sequence numbers replayed, in log order.
	Commits []uint64 `json:"commits,omitempty"`
	// Meta is the metadata blob of the last committed recMeta record,
	// nil if none was logged.
	Meta []byte `json:"-"`
	// DiscardedRecords counts valid records discarded because no commit
	// record followed them (the in-flight batch at the crash).
	DiscardedRecords int `json:"discarded_records"`
	// DiscardedBytes is the torn/garbage tail length past the last valid
	// record boundary.
	DiscardedBytes int64 `json:"discarded_bytes"`
	// TailLSN is the offset of the first byte not replayed — the end of
	// the last committed record.
	TailLSN int64 `json:"tail_lsn"`
}

// Recover scans the log from the start, validates every record, and
// REDOes committed batches: page images are buffered until their
// commit record is seen, then applied in log order via apply. The scan
// stops at the first invalid record (short, checksum mismatch, wrong
// LSN) — the torn tail a crash mid-append leaves, or a record damaged
// mid-log, which it cannot tell apart — and everything from there on,
// plus any trailing committed-less images, is discarded.
//
// apply must install the full page image at id, extending the page
// space if the page was allocated after the last checkpoint (see
// disk.Sim.Restore / disk.FileDisk.Restore).
func Recover(dev Device, apply func(id disk.PageID, img []byte) error) (*Result, error) {
	size, err := dev.Size()
	if err != nil {
		return nil, err
	}
	res := &Result{}
	type pendingImg struct {
		id  disk.PageID
		img []byte
	}
	var pending []pendingImg
	var pendingMeta []byte
	off := int64(0)
	for off < size {
		rec, ok := decodeAt(dev, off, size)
		if !ok {
			break // torn tail: everything from off on is discarded
		}
		switch rec.typ {
		case recPage:
			pending = append(pending, pendingImg{id: rec.pageID, img: rec.payload})
		case recMeta:
			pendingMeta = rec.payload
		case recCommit:
			for _, p := range pending {
				if err := apply(p.id, p.img); err != nil {
					return res, fmt.Errorf("wal: replay page %d (commit %d): %w",
						p.id, commitSeq(rec.payload), err)
				}
				res.Replayed++
			}
			pending = pending[:0]
			if pendingMeta != nil {
				res.Meta = pendingMeta
				pendingMeta = nil
			}
			res.Commits = append(res.Commits, commitSeq(rec.payload))
			res.TailLSN = rec.next
		}
		off = rec.next
	}
	// Everything between the last commit and the scan stop is discarded:
	// valid-but-uncommitted records first, then the torn bytes.
	res.DiscardedRecords = len(pending)
	if pendingMeta != nil {
		res.DiscardedRecords++
	}
	res.DiscardedBytes = size - res.TailLSN
	return res, nil
}
