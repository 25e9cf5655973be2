package buffer

import (
	"fmt"
	"sort"

	"corep/internal/disk"
)

// WAL support: the no-steal gate, page-image capture, and the crash
// drop. The pool does not know about the log itself — the database
// layer owns the log and calls these hooks around its commits — but it
// enforces the write-ahead invariant mechanically: a frame dirtied
// while the gate is armed carries an `unlogged` mark that blocks every
// path that could put its bytes on the page file (eviction write-back,
// FlushAll, Invalidate) until CollectUnlogged hands the image to the
// log. Once captured, the frame is ordinary again: still dirty, but
// evictable — if its eventual write-back tears or is lost with the
// process, recovery redoes it from the logged image.

// SetNoSteal arms (or disarms) the WAL write-ahead gate. With the gate
// off — the default — no mark is ever set and the pool's behaviour,
// including replacement-policy RNG streams and every I/O count, is
// bit-identical to a pool without the gate.
func (p *Pool) SetNoSteal(on bool) { p.noSteal.Store(on) }

// NoSteal reports whether the write-ahead gate is armed.
func (p *Pool) NoSteal() bool { return p.noSteal.Load() }

// MarkDirtyUnlogged stamps every currently-dirty frame unlogged. Called
// once when the gate is armed: frames dirtied *before* arming carry
// changes the log has never seen, and without the mark they would be
// written back at the pool's whim — exactly the steal the gate exists
// to prevent. Arm the gate first, then call this; a concurrent Unpin
// marks its own frame either way.
func (p *Pool) MarkDirtyUnlogged() {
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty {
				f.unlogged = true
			}
		}
		s.mu.Unlock()
	}
}

// UnloggedCount returns how many frames await log capture — the
// commit-time capture backlog, and the read path's pressure signal
// (derived pages dirtied between commits pile up here).
func (p *Pool) UnloggedCount() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.unlogged {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// CollectUnlogged calls fn with every unlogged frame's page image, in
// ascending page-id order, clearing the mark on success — the commit's
// capture step, run before the commit record is appended. fn is called
// under the frame's shard lock (it must append to the log and return;
// no pool reentry). On error the remaining frames keep their marks and
// the error is returned: the caller must not acknowledge the commit.
//
// Concurrent mutators may dirty new pages while a capture runs; those
// frames are re-marked by their own Unpin and belong to the next
// capture. The caller serializes captures themselves (the database's
// commit mutex).
func (p *Pool) CollectUnlogged(fn func(id disk.PageID, img []byte) error) error {
	var ids []disk.PageID
	for _, s := range p.shards {
		s.mu.Lock()
		for id, f := range s.frames {
			if f.unlogged {
				ids = append(ids, id)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := p.shardFor(id)
		s.mu.Lock()
		f, ok := s.frames[id]
		if !ok || !f.unlogged {
			s.mu.Unlock()
			continue
		}
		if err := fn(id, f.buf); err != nil {
			s.mu.Unlock()
			return err
		}
		f.unlogged = false
		s.mu.Unlock()
	}
	return nil
}

// DropAll discards every frame without writing anything back — the
// buffer pool's share of a simulated process kill (frames are DRAM;
// the page file and the synced log prefix are what survive). It
// refuses pinned frames: a crash simulation must quiesce operators
// (and the prefetcher) first, and a leaked pin is a bug worth
// surfacing, not silently dropping.
func (p *Pool) DropAll() error {
	for _, s := range p.shards {
		s.mu.Lock()
		for id, f := range s.frames {
			if f.pins > 0 {
				s.mu.Unlock()
				return fmt.Errorf("buffer: drop with pinned page %d", id)
			}
			s.lru.remove(f)
			delete(s.frames, id)
		}
		s.mu.Unlock()
	}
	return nil
}
