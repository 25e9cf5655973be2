package pql

// The reference evaluator: the executor this package had before rows
// stayed encoded, kept as a test oracle. It decodes every field of every
// record it meets, binds relation names to decoded tuples in a map per
// row, and looks every attribute up by name each time it is evaluated —
// slow and obviously right. The bound executor must agree with it on
// rows, Sources, result schema and on whether a query fails at all.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"corep/internal/catalog"
	"corep/internal/object"
	"corep/internal/tuple"
)

type refEnv map[string]tuple.Tuple

func refResolve(cat *catalog.Catalog, o Operand, e refEnv) (tuple.Value, error) {
	if !o.Column() {
		if o.IsStr {
			return tuple.StrVal(o.Str), nil
		}
		return tuple.IntVal(o.Num), nil
	}
	t, ok := e[o.Rel]
	if !ok {
		return tuple.Value{}, fmt.Errorf("%w: relation %q not bound", ErrExec, o.Rel)
	}
	rel, err := cat.Get(o.Rel)
	if err != nil {
		return tuple.Value{}, err
	}
	i := rel.Schema.Index(o.Attr)
	if i < 0 {
		return tuple.Value{}, fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, o.Rel, o.Attr)
	}
	return t[i], nil
}

func refEval(cat *catalog.Catalog, x Expr, e refEnv) (bool, error) {
	switch v := x.(type) {
	case *BinBool:
		l, err := refEval(cat, v.L, e)
		if err != nil {
			return false, err
		}
		if v.Op == "and" && !l {
			return false, nil
		}
		if v.Op == "or" && l {
			return true, nil
		}
		return refEval(cat, v.R, e)
	case *Not:
		inner, err := refEval(cat, v.E, e)
		if err != nil {
			return false, err
		}
		return !inner, nil
	case *Compare:
		lv, err := refResolve(cat, v.L, e)
		if err != nil {
			return false, err
		}
		rv, err := refResolve(cat, v.R, e)
		if err != nil {
			return false, err
		}
		if lv.Kind != rv.Kind {
			return false, fmt.Errorf("%w: type mismatch in %s (%v vs %v)", ErrExec, v, lv.Kind, rv.Kind)
		}
		c := lv.Compare(rv)
		switch v.Op {
		case "=":
			return c == 0, nil
		case "!=":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		case ">=":
			return c >= 0, nil
		}
		return false, fmt.Errorf("%w: unknown operator %q", ErrExec, v.Op)
	default:
		return false, fmt.Errorf("%w: unknown expression node %T", ErrExec, x)
	}
}

// refScan calls fn with every tuple of rel, fully decoded, that
// satisfies each top-level conjunct of where comparing rel's key with an
// integer constant (all of them without one). A bounded scan never shows
// the executor another row, so what the rest of the predicate would
// raise on one is no error of the query. The rows are found by a full
// scan and those comparisons, not by keyRange's arithmetic.
func refScan(cat *catalog.Catalog, rel *catalog.Relation, where Expr, fn func(tuple.Tuple) error) error {
	var keyConj []Expr
	var conj func(Expr)
	conj = func(e Expr) {
		if v, ok := e.(*BinBool); ok && v.Op == "and" {
			conj(v.L)
			conj(v.R)
		} else if c, ok := e.(*Compare); ok {
			if _, _, ok := keyBound(rel, c); ok {
				keyConj = append(keyConj, c)
			}
		}
	}
	if where != nil {
		conj(where)
	}
	it, err := rel.Tree.SeekFirst()
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		_, payload, ok, err := it.Next()
		if err != nil || !ok {
			return err
		}
		t, err := tuple.Decode(rel.Schema, payload)
		if err != nil {
			return err
		}
		in := true
		for _, c := range keyConj {
			if pass, err := refEval(cat, c, refEnv{rel.Name: t}); err != nil || !pass {
				in = false
			}
		}
		if !in {
			continue
		}
		if err := fn(t); err != nil {
			return err
		}
	}
}

func refOutSchema(cat *catalog.Catalog, targets []Target) (*tuple.Schema, []Operand, error) {
	var fields []tuple.Field
	var cols []Operand
	for _, t := range targets {
		rel, err := cat.Get(t.Rel)
		if err != nil {
			return nil, nil, err
		}
		if t.All() {
			for _, f := range rel.Schema.Fields {
				fields = append(fields, tuple.Field{Name: t.Rel + "." + f.Name, Kind: f.Kind, Width: f.Width})
				cols = append(cols, Operand{Rel: t.Rel, Attr: f.Name})
			}
			continue
		}
		i := rel.Schema.Index(t.Attr)
		if i < 0 {
			return nil, nil, fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, t.Rel, t.Attr)
		}
		f := rel.Schema.Fields[i]
		fields = append(fields, tuple.Field{Name: t.Rel + "." + f.Name, Kind: f.Kind, Width: f.Width})
		cols = append(cols, Operand{Rel: t.Rel, Attr: t.Attr})
	}
	// The one departure: a column named twice used to panic.
	if err := checkColumns(fields); err != nil {
		return nil, nil, err
	}
	return tuple.NewSchema(fields...), cols, nil
}

func refProject(cat *catalog.Catalog, cols []Operand, e refEnv) (tuple.Tuple, error) {
	out := make(tuple.Tuple, len(cols))
	for i, c := range cols {
		v, err := refResolve(cat, c, e)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// refExecute is the oracle's Store.Execute. depth is the stored-query
// nesting, as ExecOpts.depth.
func refExecute(cat *catalog.Catalog, q *Query, depth int) (*Result, error) {
	for _, t := range q.Targets {
		if t.Pathy() {
			return refPath(cat, q, depth)
		}
	}
	rels := q.Relations()
	switch len(rels) {
	case 0:
		return nil, fmt.Errorf("%w: query references no relations", ErrExec)
	case 1:
		return refSingle(cat, q, rels[0])
	case 2:
		return refJoin(cat, q, rels[0], rels[1])
	}
	return nil, fmt.Errorf("%w: %d-relation queries not supported", ErrExec, len(rels))
}

func refSingle(cat *catalog.Catalog, q *Query, relName string) (*Result, error) {
	rel, err := cat.Get(relName)
	if err != nil {
		return nil, err
	}
	schema, cols, err := refOutSchema(cat, q.Targets)
	if err != nil {
		return nil, err
	}
	res := &Result{Schema: schema}
	err = refScan(cat, rel, q.Where, func(t tuple.Tuple) error {
		e := refEnv{relName: t}
		if q.Where != nil {
			if pass, err := refEval(cat, q.Where, e); err != nil || !pass {
				return err
			}
		}
		row, err := refProject(cat, cols, e)
		if err != nil {
			return err
		}
		res.Tuples = append(res.Tuples, row)
		if keyed(rel.Schema) {
			res.Sources = append(res.Sources, Source{RelID: rel.ID, Key: t[0].Int})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func refJoin(cat *catalog.Catalog, q *Query, outerName, innerName string) (*Result, error) {
	outer, err := cat.Get(outerName)
	if err != nil {
		return nil, err
	}
	inner, err := cat.Get(innerName)
	if err != nil {
		return nil, err
	}
	schema, cols, err := refOutSchema(cat, q.Targets)
	if err != nil {
		return nil, err
	}
	if q.Where == nil {
		return nil, fmt.Errorf("%w: join without a where clause (cartesian products rejected)", ErrExec)
	}
	res := &Result{Schema: schema}
	match := func(e refEnv) error {
		ok, err := refEval(cat, q.Where, e)
		if err != nil || !ok {
			return err
		}
		row, err := refProject(cat, cols, e)
		res.Tuples = append(res.Tuples, row)
		return err
	}
	probe := indexProbeCol(inner, outer, q.Where)
	err = refScan(cat, outer, nil, func(ot tuple.Tuple) error {
		e := refEnv{outerName: ot}
		if probe != nil && ot[probe.outerIdx].Kind == tuple.KInt {
			payload, gerr := inner.Tree.Get(ot[probe.outerIdx].Int)
			if gerr != nil {
				return nil // no partner
			}
			it, derr := tuple.Decode(inner.Schema, payload)
			if derr != nil {
				return derr
			}
			e[innerName] = it
			return match(e)
		}
		return refScan(cat, inner, nil, func(it tuple.Tuple) error {
			e[innerName] = it
			return match(e)
		})
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func refPath(cat *catalog.Catalog, q *Query, depth int) (*Result, error) {
	if depth >= maxPathDepth {
		return nil, fmt.Errorf("%w: stored query recursion deeper than %d", ErrExec, maxPathDepth)
	}
	ptIdx := -1
	for i, t := range q.Targets {
		if !t.Pathy() {
			continue
		}
		if ptIdx >= 0 {
			return nil, fmt.Errorf("%w: at most one multi-dot path target per query", ErrExec)
		}
		ptIdx = i
	}
	pt := q.Targets[ptIdx]
	if pt.All() {
		return nil, fmt.Errorf("%w: 'all' cannot start a multi-dot path", ErrExec)
	}
	rel, err := cat.Get(pt.Rel)
	if err != nil {
		return nil, err
	}
	for _, rn := range q.Relations() {
		if rn != pt.Rel {
			return nil, fmt.Errorf("%w: path query must bind only %q (got %q)", ErrExec, pt.Rel, rn)
		}
	}
	fields := make([]tuple.Field, len(q.Targets))
	plainCols := make([]Operand, len(q.Targets))
	for i, t := range q.Targets {
		if i == ptIdx {
			fields[i] = tuple.Field{Name: pt.String(), Kind: tuple.KInt, Width: 8}
			continue
		}
		if t.All() {
			return nil, fmt.Errorf("%w: rel.all cannot accompany a path target", ErrExec)
		}
		fi := rel.Schema.Index(t.Attr)
		if fi < 0 {
			return nil, fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, t.Rel, t.Attr)
		}
		f := rel.Schema.Fields[fi]
		fields[i] = tuple.Field{Name: t.Rel + "." + f.Name, Kind: f.Kind, Width: f.Width}
		plainCols[i] = Operand{Rel: t.Rel, Attr: t.Attr}
	}
	rootIdx := rel.Schema.Index(pt.Attr)
	if rootIdx < 0 {
		return nil, fmt.Errorf("%w: relation %q has no attribute %q", ErrExec, pt.Rel, pt.Attr)
	}
	if rel.Schema.Fields[rootIdx].Kind != tuple.KBytes {
		return nil, fmt.Errorf("%w: %s.%s is not a children attribute", ErrExec, pt.Rel, pt.Attr)
	}
	if err := checkColumns(fields); err != nil {
		return nil, err
	}
	px := &refPathExec{cat: cat, depth: depth}
	res := &Result{}
	err = refScan(cat, rel, q.Where, func(t tuple.Tuple) error {
		e := refEnv{pt.Rel: t}
		if q.Where != nil {
			if pass, err := refEval(cat, q.Where, e); err != nil || !pass {
				return err
			}
		}
		vals, err := px.expand(t[rootIdx].Raw, pt.Path, 0)
		if err != nil {
			return err
		}
		for _, v := range vals {
			out := make(tuple.Tuple, len(q.Targets))
			for i := range q.Targets {
				if i == ptIdx {
					out[i] = v
				} else if out[i], err = refResolve(cat, plainCols[i], e); err != nil {
					return err
				}
			}
			res.Tuples = append(res.Tuples, out)
			if keyed(rel.Schema) {
				res.Sources = append(res.Sources, Source{RelID: rel.ID, Key: t[0].Int})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if px.leaf != nil {
		fields[ptIdx].Kind, fields[ptIdx].Width = px.leaf.Kind, px.leaf.Width
	}
	res.Schema = tuple.NewSchema(fields...)
	return res, nil
}

type refPathExec struct {
	cat   *catalog.Catalog
	depth int
	leaf  *tuple.Field
}

func (px *refPathExec) expand(raw []byte, segs []string, depth int) ([]tuple.Value, error) {
	if depth >= maxPathDepth {
		return nil, fmt.Errorf("%w: path expansion deeper than %d", ErrExec, maxPathDepth)
	}
	if len(raw) == 0 {
		return nil, nil
	}
	var schema *tuple.Schema
	var rows []tuple.Tuple
	switch raw[0] {
	case object.TagOIDs:
		oids, err := object.DecodeOIDs(raw[1:])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrExec, err)
		}
		// Every relation resolved, then one relation after the other in
		// id order, as the executor fetches them — but one ViewOID per
		// subobject where it sweeps — then every member stepped in list
		// order.
		order := make([]int, len(oids))
		for i, oid := range oids {
			if _, err := px.cat.ByID(oid.Rel()); err != nil {
				return nil, err
			}
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(oids[a].Rel(), oids[b].Rel()) })
		rels := make([]*catalog.Relation, len(oids))
		rows = make([]tuple.Tuple, len(oids))
		for _, i := range order {
			var rowErr error
			err := px.cat.ViewOID(oids[i], func(rel *catalog.Relation, payload []byte) error {
				rels[i] = rel
				rows[i], rowErr = tuple.Decode(rel.Schema, payload)
				return rowErr
			})
			if rowErr != nil {
				return nil, rowErr
			}
			if err != nil {
				return nil, fmt.Errorf("%w: subobject %s: %v", ErrExec, oids[i], err)
			}
		}
		var out []tuple.Value
		for i, t := range rows {
			vs, err := px.step(rels[i].Schema, t, segs, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, vs...)
		}
		return out, nil
	case object.TagValue:
		if len(raw) < 3 {
			return nil, fmt.Errorf("%w: truncated value-based children field", ErrExec)
		}
		rel, err := px.cat.ByID(binary.LittleEndian.Uint16(raw[1:3]))
		if err != nil {
			return nil, err
		}
		schema = rel.Schema
		if rows, err = object.DecodeNested(rel.Schema, raw[3:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrExec, err)
		}
	case object.TagProc:
		sub, err := Parse(string(raw[1:]))
		if err != nil {
			return nil, fmt.Errorf("%w: stored query: %v", ErrExec, err)
		}
		res, err := refExecute(px.cat, sub, px.depth+depth+1)
		if err != nil {
			return nil, err
		}
		schema, rows = res.Schema, res.Tuples
	default:
		return nil, fmt.Errorf("%w: unknown children representation tag %q", ErrExec, raw[0])
	}
	var out []tuple.Value
	for _, t := range rows {
		vs, err := px.step(schema, t, segs, depth)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

func (px *refPathExec) step(s *tuple.Schema, t tuple.Tuple, segs []string, depth int) ([]tuple.Value, error) {
	idx := s.Index(segs[0])
	for i := 0; idx < 0 && i < len(s.Fields); i++ {
		if strings.HasSuffix(s.Fields[i].Name, "."+segs[0]) {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("%w: no attribute %q along path", ErrExec, segs[0])
	}
	f := s.Fields[idx]
	if len(segs) == 1 {
		if px.leaf == nil {
			px.leaf = &f
		}
		return []tuple.Value{t[idx]}, nil
	}
	if f.Kind != tuple.KBytes {
		return nil, fmt.Errorf("%w: %q is not a children attribute", ErrExec, segs[0])
	}
	return px.expand(t[idx].Raw, segs[1:], depth+1)
}

// agreeWithReference runs q through the bound executor and holds the run
// to the oracle: both fail or both succeed with the same rows, Sources
// and result schema. Execute, which leaves Sources out, returns the same
// rows and schema as ExecuteSources.
func agreeWithReference(t testing.TB, cat *catalog.Catalog, src string, q *Query) (*Result, error) {
	t.Helper()
	want, wantErr := refExecute(cat, q, 0)
	got, err := Store{Cat: cat, View: cat}.ExecuteSources(q)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("executor and reference disagree on failing %q: %v vs %v", src, err, wantErr)
	}
	if err != nil {
		return want, wantErr
	}
	plain, err := Execute(cat, q)
	if err != nil || plain.Sources != nil || !reflect.DeepEqual(plain.Tuples, got.Tuples) || !reflect.DeepEqual(plain.Schema, got.Schema) {
		t.Fatalf("Execute of %q differs from ExecuteSources: %v, %v", src, plain, err)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%d rows, reference %d, for %q", len(got.Tuples), len(want.Tuples), src)
	}
	for i := range want.Tuples {
		if !reflect.DeepEqual(got.Tuples[i], want.Tuples[i]) {
			t.Fatalf("row %d of %q = %v, reference %v", i, src, got.Tuples[i], want.Tuples[i])
		}
	}
	if !reflect.DeepEqual(got.Sources, want.Sources) {
		t.Fatalf("sources of %q = %v, reference %v", src, got.Sources, want.Sources)
	}
	if !reflect.DeepEqual(got.Schema.Fields, want.Schema.Fields) {
		t.Fatalf("schema of %q = %+v, reference %+v", src, got.Schema.Fields, want.Schema.Fields)
	}
	return want, wantErr
}

// referenceQueries cover every query shape over every storage and
// representation the fixture has; they also seed FuzzPQLPlan.
var referenceQueries = []string{
	// single relation: full and range scans, targets
	`retrieve (member.all)`,
	`retrieve (member.all) where member.score > 2 and member.OID < 8`,
	`retrieve (member.name, member.OID) where member.OID >= 3 and member.OID <= 5`,
	`retrieve (member.name) where 4 < member.OID`,
	`retrieve (member.name) where not member.name = "m3" and (member.score = 0 or member.score >= 5)`,
	`retrieve (visitor.all)`,
	`retrieve (visitor.name) where visitor.score != 1`,
	`retrieve (team.members) where team.OID = 4`,
	// joins: index probe, nested loop on a non-key predicate
	`retrieve (member.name, guest.name) where guest.OID = member.score`,
	`retrieve (member.name, guest.score) where member.OID = guest.OID and guest.score > 10`,
	`retrieve (member.OID) where member.name = visitor.name`,
	`retrieve (visitor.OID, guest.all) where visitor.name = guest.name`,
	`retrieve (member.name) where member.score < guest.score and guest.OID = 1`,
	// one-segment paths through all three representations
	`retrieve (team.members.name)`,
	`retrieve (team.name, team.members.score) where team.OID <= 2`,
	`retrieve (team.members.score, team.OID) where team.name = "t3"`,
	`retrieve (team.members.OID) where team.OID = 1 or team.OID = 3`,
	// two segments: league → team by OID list, inline and stored query
	`retrieve (league.teams.members.name)`,
	`retrieve (league.name, league.teams.members.score) where league.OID != 2`,
	`retrieve (league.teams.name) where league.OID >= 1`,
	`retrieve (league.teams.members)`,
	// stored queries of different target lists one after the other
	`retrieve (club.members.name)`,
	`retrieve (club.name, club.members.OID) where club.OID <= 3 or club.OID = 5`,
	`retrieve (club.members.score) where club.OID = 1 or club.OID = 6`,
	`retrieve (club.members.score)`,
	// errors, and errors an and/or or an empty scan never reaches
	`retrieve (member.nope)`,
	`retrieve (member.name) where member.nope = 1`,
	`retrieve (member.name) where member.OID > 100 and member.nope = 1`,
	`retrieve (member.name) where member.OID < 100 or member.nope = 1`,
	`retrieve (member.name) where member.OID > 100 or member.name = 3`,
	`retrieve (member.name) where member.OID > 100 and member.OID < 200 and member.name = 3`,
	`retrieve (member.name) where member.name = 3 and member.OID > 100`,
	`retrieve (visitor.name) where visitor.score > 99 and visitor.name = 3`,
	`retrieve (team.members.nope)`,
	`retrieve (team.members.nope) where team.OID = 5`,
	`retrieve (team.name.score)`,
	`retrieve (team.members.name.x) where team.OID = 1`,
	`retrieve (league.teams.OID)`,
	`retrieve (team.members.name, team.members.score)`,
	`retrieve (team.members.name, member.name)`,
	`retrieve (person.name) where person.name = cyclist.name`,
	`retrieve (member.name, guest.name)`,
	`retrieve (member.name) where member.OID = guest.OID and guest.OID = visitor.OID`,
}

// TestBoundExecutorMatchesReference holds the bound executor to the
// oracle on the fixed queries and on a seeded stream of generated ones:
// random targets and predicates over real and misspelled attributes,
// constants of either kind, and/or/not nesting — which is where a
// bind-time error could surface earlier or later than evaluation
// would have raised it.
func TestBoundExecutorMatchesReference(t *testing.T) {
	cat := fuzzCat()
	joins := map[string]int{}
	for _, src := range referenceQueries {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		agreeWithReference(t, cat, src, q)
		agreeInLentSink(t, cat, src)
		if p, err := Explain(cat, q, ExecOpts{}); err == nil {
			for _, st := range p.Steps {
				joins[st.Op]++
			}
		}
	}
	// Every fixture relation is a B-tree, so only a join predicate off
	// the inner key keeps the plain nested loop in the seeds
	// FuzzPQLPlan starts from.
	if joins["nested-loop"] == 0 || joins["index-nested-loop"] == 0 {
		t.Fatalf("seed plans hold %d nested-loop and %d index-nested-loop joins; want both",
			joins["nested-loop"], joins["index-nested-loop"])
	}

	rng := rand.New(rand.NewSource(14))
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	attrs := map[string][]string{
		"member":  {"OID", "name", "score", "nope"},
		"guest":   {"OID", "name", "score"},
		"visitor": {"OID", "name", "score"},
		"team":    {"OID", "name", "members", "nope"},
		"league":  {"OID", "name", "teams"},
	}
	operand := func(rel string) string {
		switch rng.Intn(5) {
		case 0:
			return fmt.Sprint(rng.Intn(12) - 1)
		case 1:
			return pick(`"m3"`, `"t1"`, `"g0"`, `""`)
		}
		return rel + "." + pick(attrs[rel]...)
	}
	var pred func(rels []string, depth int) string
	pred = func(rels []string, depth int) string {
		if depth > 0 && rng.Intn(3) > 0 {
			l, r := pred(rels, depth-1), pred(rels, depth-1)
			switch rng.Intn(4) {
			case 0:
				return "not (" + l + ")"
			case 1:
				return "(" + l + " or " + r + ")"
			}
			return l + " and " + r
		}
		return operand(pick(rels...)) + " " + pick("=", "!=", "<", "<=", ">", ">=") + " " + operand(pick(rels...))
	}
	failed, rows := 0, 0
	for i := 0; i < 600; i++ {
		var rels []string
		var targets string
		switch rng.Intn(4) {
		case 0: // join
			rels = []string{pick("member", "guest", "visitor"), pick("member", "guest", "visitor")}
			targets = rels[0] + "." + pick(attrs[rels[0]]...) + ", " + rels[1] + "." + pick("all", "OID", "name")
		case 1: // path
			rels = []string{pick("team", "league")}
			targets = rels[0] + "." + pick("members", "teams", "name") + "." + pick("name", "score", "OID", "members", "nope")
			if rng.Intn(2) == 0 {
				targets += "." + pick("name", "score")
			}
			if rng.Intn(2) == 0 {
				targets = rels[0] + ".name, " + targets
			}
		default:
			rels = []string{pick("member", "guest", "visitor", "team", "league")}
			targets = rels[0] + "." + pick(append(attrs[rels[0]], "all")...)
		}
		src := "retrieve (" + targets + ")"
		if rng.Intn(5) > 0 {
			src += " where " + pred(rels, 2)
		}
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("generated %q does not parse: %v", src, err)
		}
		res, err := agreeWithReference(t, cat, src, q)
		agreeInLentSink(t, cat, src)
		if err != nil {
			failed++
		} else {
			rows += len(res.Tuples)
		}
	}
	// The stream must exercise both outcomes, or it compares nothing.
	if failed < 50 || failed > 550 || rows < 500 {
		t.Fatalf("generated stream is lopsided: %d of 600 queries failed, %d rows compared", failed, rows)
	}
}
