package strategy

import (
	"fmt"

	"corep/internal/object"
	"corep/internal/tuple"
	"corep/internal/workload"
)

// ValueScan answers queries against the value-based representation
// (§2.2.1): subobject values ride inside the parent tuples, so a
// retrieve is a single range scan with no joins, probes or cache — the
// entire child cost is folded into the (now much wider) parent scan.
func ValueScan(db *workload.ValueDB, q Query) (*Result, error) {
	valIdx := db.Schema.MustIndex("values")
	res := &Result{}
	span := beginIO(db.Core)
	err := db.Parent.Tree.Range(q.Lo, q.Hi, func(_ int64, payload []byte) (bool, error) {
		v, err := tuple.DecodeField(db.Schema, payload, valIdx)
		if err != nil {
			return false, err
		}
		rows, err := object.DecodeNested(db.ChildSchema, v.Raw)
		if err != nil {
			return false, err
		}
		for _, row := range rows {
			res.Values = append(res.Values, row[q.AttrIdx].Int)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	// The whole cost is parent access; there is no separate child fetch.
	res.Split.Par = span.end()
	return res, nil
}

// ValueUpdate applies an update op to the value-based layout. A logical
// subobject has one replica per embedding parent, and every replica must
// be rewritten — the representation's update fan-out ("we need to
// replicate its value wherever required").
func ValueUpdate(db *workload.ValueDB, op workload.Op) error {
	valIdx := db.Schema.MustIndex("values")
	for i, oid := range op.Targets {
		if oid.Rel() != db.ChildRelID() {
			return fmt.Errorf("strategy: update target %v is not a value-based subobject", oid)
		}
		for _, p := range db.Homes[oid] {
			rec, err := db.Parent.Tree.Get(p)
			if err != nil {
				return err
			}
			t, err := tuple.Decode(db.Schema, rec)
			if err != nil {
				return err
			}
			rows, err := object.DecodeNested(db.ChildSchema, t[valIdx].Raw)
			if err != nil {
				return err
			}
			for _, row := range rows {
				if object.OID(row[0].Int) == oid {
					row[workload.FieldRet1] = tuple.IntVal(op.NewRet1[i])
				}
			}
			inline, err := object.EncodeNested(db.ChildSchema, rows)
			if err != nil {
				return err
			}
			t[valIdx] = tuple.BytesVal(inline)
			nrec, err := tuple.Encode(nil, db.Schema, t)
			if err != nil {
				return err
			}
			if err := db.Parent.Tree.Update(p, nrec); err != nil {
				return err
			}
		}
	}
	return nil
}
