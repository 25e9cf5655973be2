// Package wal implements a page-oriented redo log: checksummed,
// LSN-stamped records appended to a flat device, group commit that
// batches fsyncs across concurrent committers, and REDO recovery that
// replays committed page images and discards a torn tail.
//
// The log is physical (full page images) and redo-only. Three rules
// make that sound:
//
//   - Write-ahead: a dirty page may not be written to the page file
//     before the log record carrying its image is durable (the buffer
//     pool's no-steal gate enforces this — see buffer.SetNoSteal).
//   - Commit = durable commit record: a commit is acknowledged only
//     after its commit record's fsync returns. Group commit batches
//     many committers behind one fsync; an acknowledged commit is
//     always replayable.
//   - Atomic replay: recovery buffers page images until their commit
//     record is seen, so a tail torn between a commit's page images
//     and its commit record discards the whole commit, never half.
//
// LSNs are byte offsets into the log. Each record stamps its own LSN
// so a record read at the wrong offset (a stale tail from a recycled
// log file) is rejected exactly like a checksum mismatch.
//
// Recovery does not tell a torn tail from a record damaged mid-log: the
// scan stops at the first record that fails validation and discards it
// and everything after it, committed batches included, as the tail. No
// error is returned for either; Result.DiscardedBytes counts what was
// dropped.
package wal

import (
	"encoding/binary"
	"hash/crc32"

	"corep/internal/disk"
)

// Record types.
const (
	// recPage carries one full page image (payload = disk.PageSize).
	recPage = 1
	// recCommit ends one atomic batch of page images; payload is the
	// 8-byte commit sequence number.
	recCommit = 2
	// recMeta carries an opaque metadata blob (the database's sidecar
	// JSON) that becomes current when the following commit record lands.
	recMeta = 3
)

// headerSize is the fixed record header:
//
//	[0:4)   crc32c over bytes [4:headerSize+len) — header fields + payload
//	[4:8)   payload length (uint32)
//	[8:16)  lsn: the record's own start offset (uint64)
//	[16]    record type
//	[17:20) reserved, zero
//	[20:24) page id (recPage; zero otherwise)
const headerSize = 24

// maxPayload bounds a record payload: one page image plus slack for
// metadata blobs. Anything larger read during recovery is treated as
// tail corruption, not an allocation request.
const maxPayload = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord appends a framed record to dst and returns the result.
// lsn must be the offset the record will be written at.
func encodeRecord(dst []byte, lsn int64, typ byte, pageID disk.PageID, payload []byte) []byte {
	start := len(dst)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(lsn))
	hdr[16] = typ
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(pageID))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start+4:], castagnoli)
	binary.LittleEndian.PutUint32(dst[start:start+4], crc)
	return dst
}

// decoded is one validated record.
type decoded struct {
	typ     byte
	pageID  disk.PageID
	payload []byte
	next    int64 // offset of the following record
}

// decodeAt reads and validates the record starting at off. A short
// read, checksum mismatch, LSN mismatch, or absurd length returns
// (zero, false): the scan treats everything from off on as the torn
// tail.
func decodeAt(dev Device, off, size int64) (decoded, bool) {
	if off+headerSize > size {
		return decoded{}, false
	}
	var hdr [headerSize]byte
	if _, err := dev.ReadAt(hdr[:], off); err != nil {
		return decoded{}, false
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[4:8]))
	if plen > maxPayload || off+headerSize+plen > size {
		return decoded{}, false
	}
	if int64(binary.LittleEndian.Uint64(hdr[8:16])) != off {
		return decoded{}, false
	}
	payload := make([]byte, plen)
	if plen > 0 {
		if _, err := dev.ReadAt(payload, off+headerSize); err != nil {
			return decoded{}, false
		}
	}
	crc := crc32.Checksum(hdr[4:], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.LittleEndian.Uint32(hdr[0:4]) {
		return decoded{}, false
	}
	typ := hdr[16]
	if typ != recPage && typ != recCommit && typ != recMeta {
		return decoded{}, false
	}
	if typ == recPage && plen != disk.PageSize {
		return decoded{}, false
	}
	if typ == recCommit && plen != 8 {
		return decoded{}, false
	}
	return decoded{
		typ:     typ,
		pageID:  disk.PageID(binary.LittleEndian.Uint32(hdr[20:24])),
		payload: payload,
		next:    off + headerSize + plen,
	}, true
}

func commitSeq(payload []byte) uint64 { return binary.LittleEndian.Uint64(payload) }

func commitPayload(seq uint64) []byte {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], seq)
	return p[:]
}
