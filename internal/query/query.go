// Package query provides the relational operators the strategies are
// built from: temporary-relation formation, external merge sort, merge
// join against a B-tree, and duplicate elimination.
//
// Everything is I/O-charged through the buffer pool: the paper's BFS
// pays for "forming the temporary relation" and for the sort feeding its
// merge join, and those costs are what separate the strategies at low
// NumTop (§3.1, §5.1).
package query

import (
	"encoding/binary"
	"slices"

	"corep/internal/buffer"
	"corep/internal/heap"
	"corep/internal/obs"
	"corep/internal/storage"
)

// Int64Iter yields int64 values in some order. ok=false means exhausted.
type Int64Iter interface {
	Next() (v int64, ok bool, err error)
}

// Int64Temp is a temporary relation of int64 values backed by a heap
// file — the paper's "temp" relation "whose single attribute is OID".
type Int64Temp struct {
	file   *heap.File
	max    int64
	hasMax bool
}

// NewInt64Temp creates an empty temporary.
func NewInt64Temp(pool *buffer.Pool) (*Int64Temp, error) {
	f, err := heap.Create(pool)
	if err != nil {
		return nil, err
	}
	return &Int64Temp{file: f}, nil
}

// Append adds one value, paying heap-file I/O.
func (t *Int64Temp) Append(v int64) error {
	w := t.Appender()
	defer w.Close()
	return w.Append(v)
}

// TempAppender appends a run of values to an Int64Temp under one pin of
// the heap file's tail page (heap.Appender). The caller must not touch
// the pool between the run's appends and must Close the run — before
// reading the temporary, and before appending to another one.
type TempAppender struct {
	t *Int64Temp
	a heap.Appender
}

// Appender starts an append run; nothing is pinned until its first
// Append.
func (t *Int64Temp) Appender() TempAppender {
	return TempAppender{t: t, a: t.file.Appender()}
}

// Append adds one value to the run.
func (w *TempAppender) Append(v int64) error {
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(v))
	if _, err := w.a.Append(rec[:]); err != nil {
		return err
	}
	if t := w.t; !t.hasMax || v > t.max {
		t.max, t.hasMax = v, true
	}
	return nil
}

// Close ends the run, releasing the tail page. It is idempotent.
func (w *TempAppender) Close() { w.a.Close() }

// Count returns the number of stored values.
func (t *Int64Temp) Count() int { return t.file.Count() }

// Max returns the largest appended value (ok=false when empty). A merge
// join driven by this temporary never walks the inner side past Max —
// the bound its leaf readahead stops seeding at.
func (t *Int64Temp) Max() (int64, bool) { return t.max, t.hasMax }

// Scan calls fn for each value in insertion order.
func (t *Int64Temp) Scan(fn func(v int64) (bool, error)) error {
	var ferr error
	err := t.file.Scan(func(_ storage.RID, rec []byte) bool {
		cont, err := fn(int64(binary.LittleEndian.Uint64(rec)))
		if err != nil {
			ferr = err
			return false
		}
		return cont
	})
	if ferr != nil {
		return ferr
	}
	return err
}

// Iter returns a pull iterator over the temporary in insertion order.
// It materializes positions lazily by walking the heap chain; each page
// is pinned once per visit (buffer hits are free).
func (t *Int64Temp) Iter() *TempIter { return &TempIter{t: t} }

// TempIter pulls values from an Int64Temp.
type TempIter struct {
	t      *Int64Temp
	buf    []int64
	pos    int
	primed bool
}

// Next implements Int64Iter. The first call scans the heap into memory;
// the I/O for that scan is charged at that moment. (The values
// themselves are small — one page of OIDs holds ~170 — so holding the
// decoded ints in memory mirrors INGRES keeping the outer stream of a
// merge join flowing.)
func (it *TempIter) Next() (int64, bool, error) {
	if !it.primed {
		it.primed = true
		it.buf = make([]int64, 0, it.t.Count())
		err := it.t.Scan(func(v int64) (bool, error) {
			it.buf = append(it.buf, v)
			return true, nil
		})
		if err != nil {
			return 0, false, err
		}
	}
	if it.pos >= len(it.buf) {
		return 0, false, nil
	}
	v := it.buf[it.pos]
	it.pos++
	return v, true, nil
}

// SortTemp external-merge-sorts a temporary into a new temporary,
// charging run-formation and merge I/O. workMem bounds the in-memory
// working set, in values (e.g. 20 pages × ~170 values).
func SortTemp(pool *buffer.Pool, in *Int64Temp, workMem int) (*Int64Temp, error) {
	if workMem < 2 {
		workMem = 2
	}
	ob := pool.Obs()
	sp := ob.Start("query.sort")
	defer sp.End()
	nruns := 0
	defer func() {
		sp.SetAttr("values", int64(in.Count()))
		sp.SetAttr("runs", int64(nruns))
		ob.Histogram("query.temp.values", obs.CountBuckets).Observe(float64(in.Count()))
	}()
	// Phase 1: produce sorted runs.
	var runs []*Int64Temp
	cur := make([]int64, 0, min(workMem, in.Count()))
	flush := func() error {
		if len(cur) == 0 {
			return nil
		}
		slices.Sort(cur)
		run, err := NewInt64Temp(pool)
		if err != nil {
			return err
		}
		w := run.Appender()
		defer w.Close()
		for _, v := range cur {
			if err := w.Append(v); err != nil {
				return err
			}
		}
		runs = append(runs, run)
		cur = cur[:0]
		return nil
	}
	err := in.Scan(func(v int64) (bool, error) {
		cur = append(cur, v)
		if len(cur) >= workMem {
			if err := flush(); err != nil {
				return false, err
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	nruns = len(runs)
	if len(runs) == 0 {
		return NewInt64Temp(pool)
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	// Phase 2: k-way merge (single pass; run counts in the experiments
	// stay far below any reasonable fan-in).
	out, err := NewInt64Temp(pool)
	if err != nil {
		return nil, err
	}
	iters := make([]Int64Iter, len(runs))
	for i, r := range runs {
		iters[i] = r.Iter()
	}
	heads := make([]int64, len(runs))
	alive := make([]bool, len(runs))
	for i, it := range iters {
		v, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		heads[i], alive[i] = v, ok
	}
	// Every run is in memory now (TempIter reads its heap file on the
	// first Next), so the merge loop touches only out's tail page.
	w := out.Appender()
	defer w.Close()
	for {
		best := -1
		for i := range heads {
			if alive[i] && (best < 0 || heads[i] < heads[best]) {
				best = i
			}
		}
		if best < 0 {
			return out, nil
		}
		if err := w.Append(heads[best]); err != nil {
			return nil, err
		}
		v, ok, err := iters[best].Next()
		if err != nil {
			return nil, err
		}
		heads[best], alive[best] = v, ok
	}
}

// Distinct wraps a sorted Int64Iter, dropping adjacent duplicates — the
// duplicate-removal step of BFSNODUP (§3.1 [3]).
type Distinct struct {
	in    Int64Iter
	last  int64
	first bool
}

// NewDistinct wraps in, which must be sorted.
func NewDistinct(in Int64Iter) *Distinct { return &Distinct{in: in, first: true} }

// Next implements Int64Iter.
func (d *Distinct) Next() (int64, bool, error) {
	for {
		v, ok, err := d.in.Next()
		if err != nil || !ok {
			return 0, false, err
		}
		if d.first || v != d.last {
			d.first, d.last = false, v
			return v, true, nil
		}
	}
}

// KeyedIter yields (key, payload) pairs in key order — the inner side of
// a merge join (a B-tree leaf scan in the paper's setup).
type KeyedIter interface {
	Next() (key int64, payload []byte, ok bool, err error)
}

// MergeJoin joins a sorted outer Int64Iter against a sorted KeyedIter,
// calling fn once per outer value that finds a match. Duplicate outer
// values re-emit the matching payload (plain BFS keeps duplicates,
// §3.1); unmatched outer values are skipped. The payload passed to fn is
// only valid during the call. The span opened on ob attributes the
// join's I/O (pass the zero Ctx to run uninstrumented).
func MergeJoin(ob obs.Ctx, outer Int64Iter, inner KeyedIter, fn func(key int64, payload []byte) (bool, error)) error {
	sp := ob.Start("query.mergejoin")
	defer sp.End()
	rows := int64(0)
	defer func() { sp.SetAttr("rows", rows) }()
	ov, ook, err := outer.Next()
	if err != nil {
		return err
	}
	ik, ip, iok, err := inner.Next()
	if err != nil {
		return err
	}
	for ook && iok {
		switch {
		case ov < ik:
			// Outer value has no match; advance outer. (Duplicate outer
			// values smaller than the inner head all drain here.)
			ov, ook, err = outer.Next()
			if err != nil {
				return err
			}
		case ov > ik:
			ik, ip, iok, err = inner.Next()
			if err != nil {
				return err
			}
		default:
			rows++
			cont, err := fn(ik, ip)
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
			// Advance outer only: a run of equal outer values matches the
			// same inner entry (keys are unique on the inner side — OIDs).
			ov, ook, err = outer.Next()
			if err != nil {
				return err
			}
		}
	}
	return nil
}
