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
	"errors"
	"math"
	"math/bits"
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
// The handle holds the file itself, so a handle an Arena lends is
// formed into one temporary after another without an allocation.
type Int64Temp struct {
	file heap.File
}

// NewInt64Temp creates an empty temporary in a handle of its own, for a
// caller that keeps it (the benchmark's query probes, tests). A
// retrieve takes its temporaries from its Arena instead.
func NewInt64Temp(pool *buffer.Pool) (*Int64Temp, error) {
	return new(Arena).NewTemp(pool)
}

// Arena lends one retrieve the handles of the temporaries it forms and
// of the readers it opens on them (NewTemp, Iter, SortTemp), each one a
// handle an earlier retrieve left behind when there is one, with the
// page list that retrieve grew in it, and the readers and SortTemp
// their value buffers, so a warm retrieve allocates none. Every handle
// stays the retrieve's until Reset, which the retrieve calls when it
// returns — never on a temporary's Drop or a reader's Close: a second
// Drop within the retrieve then finds its own dropped file, not a later
// temporary formed in the same handle. The zero Arena is ready; one retrieve uses
// it at a time.
type Arena struct {
	temps []*Int64Temp // every handle made; the first nt are lent
	iters []*TempIter  // every reader made; the first ni are lent
	nt    int
	ni    int
	// free holds the value buffers no reader or sort is using: a reader
	// takes one at its first Next and gives it back at Close, SortTemp
	// one for its runs, so a retrieve keeps no more of them than it
	// reads at once.
	free [][]int64
	// SortTemp's radix sort's second buffer, the runs it has written and
	// their heads in the merge.
	aux   []int64
	runs  []*Int64Temp
	heads []mergeHead
}

// NewTemp creates an empty temporary in a lent handle.
func (a *Arena) NewTemp(pool *buffer.Pool) (*Int64Temp, error) {
	if a.nt == len(a.temps) {
		a.temps = append(a.temps, new(Int64Temp))
	}
	t := a.temps[a.nt]
	if err := heap.CreateInto(&t.file, pool); err != nil {
		return nil, err
	}
	a.nt++
	return t, nil
}

// Iter is Int64Temp.Iter in a lent handle.
func (a *Arena) Iter(t *Int64Temp) *TempIter {
	if a.ni == len(a.iters) {
		a.iters = append(a.iters, new(TempIter))
	}
	it := a.iters[a.ni]
	*it = TempIter{t: t, a: a}
	a.ni++
	return it
}

// values takes a buffer with room for n values from a's free ones, or
// makes one (always, for a nil a).
func (a *Arena) values(n int) []int64 {
	if a != nil && len(a.free) > 0 {
		vs := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		if cap(vs) >= n {
			return vs[:0]
		}
	}
	return make([]int64, 0, n)
}

// giveBack returns a buffer values lent to a's free ones.
func (a *Arena) giveBack(vs []int64) {
	if a != nil && vs != nil {
		a.free = append(a.free, vs[:0])
	}
}

// Reset takes back every handle lent since the last Reset: the retrieve
// has dropped its temporaries, which drop nothing again, and closed its
// readers, which read nothing again, until each is lent anew.
func (a *Arena) Reset() { a.nt, a.ni = 0, 0 }

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
	a heap.Appender
}

// Appender starts an append run; nothing is pinned until its first
// Append.
func (t *Int64Temp) Appender() TempAppender {
	return TempAppender{a: t.file.Appender()}
}

// Append adds one value to the run.
func (w *TempAppender) Append(v int64) error {
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(v))
	_, err := w.a.Append(rec[:])
	return err
}

// AppendAll adds every value of vs to the run, a page at a time
// (heap.Appender.AppendInt64s): the pages and the pool calls are those
// of one Append per value.
func (w *TempAppender) AppendAll(vs []int64) error { return w.a.AppendInt64s(vs) }

// Close ends the run, releasing the tail page. It is idempotent.
func (w *TempAppender) Close() { w.a.Close() }

// Count returns the number of stored values.
func (t *Int64Temp) Count() int { return t.file.Count() }

// Drop frees the temporary's pages (heap.File.Drop): a temporary lives
// until its consumer is done with it and no longer. Any open append run
// must be closed first; the temporary must not be used afterwards.
func (t *Int64Temp) Drop() error { return t.file.Drop() }

// ReadAll appends every value to dst in insertion order, a page at a
// time (heap.File.ReadInt64s): it pins the pages Scan pins, in the same
// order, but calls nothing between them, so it is for a reader that
// touches the pool only once it has them all. A record that is not an
// int64's 8 bytes is an error.
func (t *Int64Temp) ReadAll(dst []int64) ([]int64, error) { return t.file.ReadInt64s(dst, nil) }

// Scan calls fn for each value in insertion order, for a reader that
// touches the pool between values.
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

// Iter returns a pull iterator over the temporary in insertion order,
// in a handle of its own (a retrieve's come from its Arena). Its first
// Next reads the whole temporary into a buffer of its own.
func (t *Int64Temp) Iter() *TempIter { return &TempIter{t: t} }

// TempIter pulls values from an Int64Temp. A reader that stops before
// the end (a merge join whose inner side ran out, an error) must Close
// it.
type TempIter struct {
	t      *Int64Temp
	a      *Arena // lends vs; nil for a reader of its own
	vs     []int64
	pos    int
	primed bool
	err    error
}

// Next implements Int64Iter. The first call scans the heap into memory;
// the I/O for that scan is charged at that moment. (The values
// themselves are small — one page of OIDs holds ~170 — so holding the
// decoded ints in memory mirrors INGRES keeping the outer stream of a
// merge join flowing.) An error of that scan is returned by every call.
func (it *TempIter) Next() (int64, bool, error) {
	if !it.primed {
		it.primed = true
		it.vs, it.err = it.t.ReadAll(it.a.values(it.t.Count()))
		if it.err != nil {
			it.Close()
		}
	}
	if it.err != nil {
		return 0, false, it.err
	}
	if it.pos >= len(it.vs) {
		return 0, false, nil
	}
	v := it.vs[it.pos]
	it.pos++
	return v, true, nil
}

// Close gives the iterator's buffer back to its Arena; from then on
// Next reports the end (or the scan's error). It is idempotent.
func (it *TempIter) Close() {
	it.primed = true
	it.a.giveBack(it.vs)
	it.vs, it.pos = nil, 0
}

// SortTemp is Arena.SortTemp in handles of its own, for a caller that
// keeps the sorted temporary (the benchmark's query probes, tests).
func SortTemp(pool *buffer.Pool, in *Int64Temp, workMem int) (*Int64Temp, error) {
	return new(Arena).SortTemp(pool, in, workMem)
}

// SortTemp external-merge-sorts a temporary into a new temporary,
// charging run-formation and merge I/O; the runs, their readers and the
// output are lent by a. workMem bounds the in-memory working set, in
// values (e.g. 20 pages × ~170 values). Each run is radix-sorted in
// memory (Arena.radixSort) in a's buffers. The runs are dropped once
// merged (a single run is the result itself), a refused page free
// failing the sort, and on an error nothing SortTemp made is left
// behind; in stays the caller's.
func (a *Arena) SortTemp(pool *buffer.Pool, in *Int64Temp, workMem int) (_ *Int64Temp, err error) {
	if workMem < 2 {
		workMem = 2
	}
	sp := pool.Obs().Start("query.sort")
	defer sp.End()
	nruns := 0
	defer func() {
		sp.SetAttr("values", int64(in.Count()))
		sp.SetAttr("runs", int64(nruns))
	}()
	// Phase 1: produce sorted runs, listed in a. The run list is given
	// back only after the error path below has dropped the runs: defers
	// run last first. cur holds up to a page beyond workMem.
	cur := a.values(min(workMem+storage.Int64sPerPage, in.Count()))
	runs := a.runs[:0]
	defer func() {
		a.runs = runs[:0]
		a.giveBack(cur)
	}()
	defer func() {
		if err != nil {
			dropAll(runs) // the sort's own error is the one reported
		}
	}()
	flush := func(vs []int64) error {
		run, err := a.NewTemp(pool)
		if err != nil {
			return err
		}
		runs = append(runs, run)
		w := run.Appender()
		defer w.Close()
		return w.AppendAll(a.radixSort(vs))
	}
	// A run is written as soon as workMem values are in, under the pin
	// of the input page that completed it, as a per-value scan would.
	cur, err = in.file.ReadInt64s(cur, func(vs []int64) ([]int64, error) {
		for len(vs) >= workMem {
			if err := flush(vs[:workMem]); err != nil {
				return vs, err
			}
			vs = vs[:copy(vs, vs[workMem:])]
		}
		return vs, nil
	})
	if err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		if err := flush(cur); err != nil {
			return nil, err
		}
	}
	nruns = len(runs)
	if len(runs) == 0 {
		return a.NewTemp(pool)
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	// Phase 2: k-way merge (single pass; run counts in the experiments
	// stay far below any reasonable fan-in).
	out, err := a.NewTemp(pool)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			out.Drop()
		}
	}()
	// One head per run, in a like the run list.
	heads := a.heads[:0]
	defer func() {
		for _, h := range heads {
			h.it.Close()
		}
		a.heads = heads[:0]
	}()
	for _, r := range runs {
		heads = append(heads, mergeHead{it: a.Iter(r)})
	}
	for i := range heads {
		h := &heads[i]
		if h.v, h.alive, err = h.it.Next(); err != nil {
			return nil, err
		}
	}
	// Every run is in memory now (TempIter reads its heap file on the
	// first Next), so out's tail page is the only pool traffic left: the
	// merge fills cur, whose values are all in the runs, and appends it
	// to out whenever it is full.
	w := out.Appender()
	defer w.Close()
	merged := cur[:0]
	for {
		best := -1
		for i, h := range heads {
			if h.alive && (best < 0 || h.v < heads[best].v) {
				best = i
			}
		}
		if best < 0 || len(merged) == cap(merged) {
			if err := w.AppendAll(merged); err != nil {
				return nil, err
			}
			merged = merged[:0]
		}
		if best < 0 {
			break
		}
		h := &heads[best]
		merged = append(merged, h.v)
		if h.v, h.alive, err = h.it.Next(); err != nil {
			return nil, err
		}
	}
	// Merged: the runs go now, and a refused free fails the sort.
	done := runs
	runs = runs[:0]
	if err := dropAll(done); err != nil {
		return nil, err
	}
	return out, nil
}

// dropAll drops every temporary of ts, returning their errors joined.
func dropAll(ts []*Int64Temp) error {
	var err error
	for _, t := range ts {
		err = errors.Join(err, t.Drop())
	}
	return err
}

// mergeHead is one run's reader in SortTemp's merge and the value it
// stands on (alive false once the run is exhausted).
type mergeHead struct {
	it    *TempIter
	v     int64
	alive bool
}

// radixSort sorts vs ascending with an LSD radix sort over the bytes of
// v − min(vs), taken as unsigned: one stable counting pass per byte of
// max − min, so two for a temporary of OIDs and eight at most, and no
// pass when every value is equal. The differences are computed modulo
// 2⁶⁴, which orders the full int64 range, negatives included. The passes
// alternate between vs and a.aux (grown to len(vs) if shorter), and
// the one the last pass filled is returned: the int64s a comparison
// sort would leave, in the same order.
func (a *Arena) radixSort(vs []int64) []int64 {
	if len(vs) < 2 {
		return vs
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	passes := (bits.Len64(uint64(hi)-uint64(lo)) + 7) / 8
	if passes == 0 {
		return vs
	}
	if cap(a.aux) < len(vs) {
		a.aux = make([]int64, len(vs))
	}
	src, dst := vs, a.aux[:len(vs)]
	for shift := uint(0); shift < uint(8*passes); shift += 8 {
		var start [256]int
		for _, v := range src {
			start[byte((uint64(v)-uint64(lo))>>shift)]++
		}
		sum := 0
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for _, v := range src {
			d := byte((uint64(v) - uint64(lo)) >> shift)
			dst[start[d]] = v
			start[d]++
		}
		src, dst = dst, src
	}
	return src
}

// Distinct keeps one value of each run of equal values of sorted, in
// order — the duplicate-removal step of BFSNODUP (§3.1 [3]). It works
// in place: the result shares sorted's array.
func Distinct(sorted []int64) []int64 { return slices.Compact(sorted) }

// KeyedIter is the inner side of a merge join (a B-tree leaf scan in the
// paper's setup): NextGE moves it forward, in key order, to the first
// entry whose key is ≥ key, without handing over the entries it passes.
type KeyedIter interface {
	NextGE(key int64) (k int64, payload []byte, ok bool, err error)
}

// MergeJoin joins a sorted outer Int64Iter against a sorted KeyedIter,
// calling fn once per outer value that finds a match. Duplicate outer
// values re-emit the matching payload (plain BFS keeps duplicates,
// §3.1); unmatched outer values are skipped. The inner side only ever
// seeks to the next outer value, so the join's CPU there follows the
// rows it joins, not the entries between them, while it reads exactly
// the leaves an entry-by-entry walk would. The payload
// passed to fn is only valid during the call. The span opened on ob
// attributes the join's I/O (pass the zero Ctx to run uninstrumented).
func MergeJoin(ob obs.Ctx, outer Int64Iter, inner KeyedIter, fn func(key int64, payload []byte) (bool, error)) error {
	sp := ob.Start("query.mergejoin")
	defer sp.End()
	rows := int64(0)
	defer func() { sp.SetAttr("rows", rows) }()
	ov, ook, err := outer.Next()
	if err != nil {
		return err
	}
	// An empty outer side still opens the inner one at its first entry,
	// as a join reading both heads does: that leaf pin is counted I/O.
	first := int64(math.MinInt64)
	if ook {
		first = ov
	}
	ik, ip, iok, err := inner.NextGE(first)
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
			ik, ip, iok, err = inner.NextGE(ov)
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
