package corep_test

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"corep"
)

// The paper's running example (§2): groups of persons ("elders",
// "children", "cyclists") stored three times, once per primary
// representation of the representation matrix:
//
//   - procedural: group.members is a stored retrieve query
//   - OID: group.members is a list of person OIDs
//   - value-based: group.members holds the member values inline
//
// The same multi-dot query, retrieve (group.members.name), runs against
// all three.
func Example_scientists() {
	db := corep.NewDatabase(100)

	// person (name, age, ...) — "Contains information on persons".
	person, err := db.CreateRelation("person",
		corep.IntField("OID"), corep.StrField("name"), corep.IntField("age"))
	if err != nil {
		log.Fatal(err)
	}
	people := []struct {
		name string
		age  int64
	}{
		{"John", 62}, {"Mary", 62}, {"Paul", 68},
		{"Jill", 8}, {"Bill", 12}, {"Mike", 44},
	}
	oids := map[string]corep.OID{}
	rows := map[string]corep.Row{}
	for i, p := range people {
		row := corep.Row{corep.Int(int64(i + 1)), corep.Str(p.name), corep.Int(p.age)}
		oid, err := person.Insert(row)
		if err != nil {
			log.Fatal(err)
		}
		oids[p.name] = oid
		rows[p.name] = row
	}

	// cyclist (name, ...) — "Contains information on cyclists".
	cyclist, err := db.CreateRelation("cyclist",
		corep.IntField("OID"), corep.StrField("name"))
	if err != nil {
		log.Fatal(err)
	}
	for i, name := range []string{"Mary", "Mike"} {
		if _, err := cyclist.Insert(corep.Row{corep.Int(int64(i + 1)), corep.Str(name)}); err != nil {
			log.Fatal(err)
		}
	}

	// group (name, members, ...) under each primary representation.
	group, err := db.CreateRelation("group",
		corep.IntField("key"), corep.StrField("name"), corep.ChildrenField("members"))
	if err != nil {
		log.Fatal(err)
	}
	groups := []struct {
		key      int64
		name     string
		children corep.Children
	}{
		// Procedural (§2.1.1): exactly the stored queries of the paper's
		// example table.
		{1, "elders(proc)", corep.ProcChildren(`retrieve (person.all) where person.age >= 60`)},
		{2, "children(proc)", corep.ProcChildren(`retrieve (person.all) where person.age <= 15`)},
		{3, "cyclists(proc)", corep.ProcChildren(`retrieve (person.all) where person.name = cyclist.name`)},
		// OID representation (§2.2): "the numbers in group.members are the
		// OID's of the corresponding members."
		{4, "elders(oid)", corep.OIDChildren(oids["John"], oids["Mary"], oids["Paul"])},
		{5, "children(oid)", corep.OIDChildren(oids["Jill"], oids["Bill"])},
		{6, "cyclists(oid)", corep.OIDChildren(oids["Mary"], oids["Mike"])},
		// Value-based (§2.2.1): member values stored inline; Mary appears
		// in both elders and cyclists, so her value is replicated.
		{7, "elders(value)", corep.ValueChildren(person, rows["John"], rows["Mary"], rows["Paul"])},
		{8, "cyclists(value)", corep.ValueChildren(person, rows["Mary"], rows["Mike"])},
	}
	for _, g := range groups {
		_, err := group.InsertWith(
			corep.Row{corep.Int(g.key), corep.Str(g.name), corep.Value{}},
			map[string]corep.Children{"members": g.children})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Start the query phase cold so the I/O counters reflect retrieval,
	// not loading.
	if err := db.ResetCold(); err != nil {
		log.Fatal(err)
	}

	// retrieve (group.members.name) for every group, whatever its
	// representation.
	fmt.Println("retrieve (group.members.name):")
	for _, g := range groups {
		names, err := db.RetrievePath("group", "members", "name", g.key, g.key)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-15s →", g.name)
		for _, n := range names {
			fmt.Printf(" %s", n.Str)
		}
		fmt.Println()
	}

	// The representation matrix (Figure 1) as data.
	fmt.Println("\nrepresentation matrix (Figure 1):")
	for _, cell := range corep.RepresentationMatrix() {
		status := "invalid"
		if cell.Valid {
			status = "valid"
			if cell.Studied != "" {
				status += ", studied in " + cell.Studied
			}
		}
		fmt.Printf("  primary=%-11s cached=%-6s  %s\n", cell.Primary, cell.Cached, status)
	}

	s := db.Snapshot().Disk
	fmt.Printf("\nsimulated I/O for the retrievals: %d reads, %d writes\n", s.Reads, s.Writes)

	// Output:
	// retrieve (group.members.name):
	//   elders(proc)    → John Mary Paul
	//   children(proc)  → Jill Bill
	//   cyclists(proc)  → Mary Mike
	//   elders(oid)     → John Mary Paul
	//   children(oid)   → Jill Bill
	//   cyclists(oid)   → Mary Mike
	//   elders(value)   → John Mary Paul
	//   cyclists(value) → Mary Mike
	//
	// representation matrix (Figure 1):
	//   primary=procedural  cached=none    valid, studied in [JHIN88]
	//   primary=procedural  cached=oids    valid, studied in [JHIN88]
	//   primary=procedural  cached=values  valid, studied in [JHIN88]
	//   primary=oid         cached=none    valid, studied in this paper (§3–6)
	//   primary=oid         cached=oids    invalid
	//   primary=oid         cached=values  valid, studied in this paper (§3–6)
	//   primary=value-based cached=none    valid
	//   primary=value-based cached=oids    invalid
	//   primary=value-based cached=values  invalid
	//
	// simulated I/O for the retrievals: 3 reads, 0 writes
}

// The paper's introductory complex object (§1): cells are made of paths
// and instances of other cells, paths are made of rectangles. Stored in
// the OID representation and navigated over multiple levels ("queries
// involving more than two dots in the target list require more levels
// of relationships to be explored").
func Example_vlsi() {
	db := corep.NewDatabase(100)
	rng := rand.New(rand.NewSource(42))

	// rectangle(OID, x1, y1, x2, y2, layer)
	rect, err := db.CreateRelation("rectangle",
		corep.IntField("OID"), corep.IntField("x1"), corep.IntField("y1"),
		corep.IntField("x2"), corep.IntField("y2"), corep.IntField("layer"))
	if err != nil {
		log.Fatal(err)
	}
	var rectOIDs []corep.OID
	for i := int64(0); i < 600; i++ {
		x, y := rng.Int63n(10000), rng.Int63n(10000)
		oid, err := rect.Insert(corep.Row{
			corep.Int(i), corep.Int(x), corep.Int(y),
			corep.Int(x + 1 + rng.Int63n(50)), corep.Int(y + 1 + rng.Int63n(50)),
			corep.Int(rng.Int63n(4)),
		})
		if err != nil {
			log.Fatal(err)
		}
		rectOIDs = append(rectOIDs, oid)
	}

	// path(OID, name, width, rects): a path is made of rectangles.
	path, err := db.CreateRelation("path",
		corep.IntField("OID"), corep.StrField("name"), corep.IntField("width"),
		corep.ChildrenField("rects"))
	if err != nil {
		log.Fatal(err)
	}
	var pathOIDs []corep.OID
	for i := int64(0); i < 120; i++ {
		members := make([]corep.OID, 5)
		for j := range members {
			members[j] = rectOIDs[rng.Intn(len(rectOIDs))]
		}
		oid, err := path.InsertWith(
			corep.Row{corep.Int(i), corep.Str(fmt.Sprintf("metal%d", i)), corep.Int(1 + rng.Int63n(8)), corep.Value{}},
			map[string]corep.Children{"rects": corep.OIDChildren(members...)})
		if err != nil {
			log.Fatal(err)
		}
		pathOIDs = append(pathOIDs, oid)
	}

	// cell(OID, name, paths, instances): cells contain paths and
	// instances of other cells (a DAG, so subobjects are shared).
	cell, err := db.CreateRelation("cell",
		corep.IntField("OID"), corep.StrField("name"),
		corep.ChildrenField("paths"), corep.ChildrenField("instances"))
	if err != nil {
		log.Fatal(err)
	}
	var cellOIDs []corep.OID
	for i := int64(0); i < 40; i++ {
		ps := make([]corep.OID, 4)
		for j := range ps {
			ps[j] = pathOIDs[rng.Intn(len(pathOIDs))]
		}
		// Instances reference earlier cells only (keeps the hierarchy a DAG).
		var insts []corep.OID
		for j := 0; j < 2 && len(cellOIDs) > 0; j++ {
			insts = append(insts, cellOIDs[rng.Intn(len(cellOIDs))])
		}
		oid, err := cell.InsertWith(
			corep.Row{corep.Int(i), corep.Str(fmt.Sprintf("cell%02d", i)), corep.Value{}, corep.Value{}},
			map[string]corep.Children{
				"paths":     corep.OIDChildren(ps...),
				"instances": corep.OIDChildren(insts...),
			})
		if err != nil {
			log.Fatal(err)
		}
		cellOIDs = append(cellOIDs, oid)
	}

	// Start the query phase cold so the I/O counters reflect navigation,
	// not loading.
	if err := db.ResetCold(); err != nil {
		log.Fatal(err)
	}

	// Two-dot query: retrieve (cell.paths.name) for cell 39.
	names, err := db.RetrievePath("cell", "paths", "name", 39, 39)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("retrieve (cell.paths.name) where cell.OID = 39 →")
	for _, n := range names {
		fmt.Printf(" %s", n.Str)
	}
	fmt.Println()

	// Three-dot query: retrieve (cell.paths.rects.layer), resolving one
	// more level by hand, the way a query processor would chain units.
	resolved, err := cell.Resolve(39, "paths")
	if err != nil {
		log.Fatal(err)
	}
	layerArea := map[int64]int64{}
	for _, pOID := range resolved.OIDs {
		rr, err := path.Resolve(pOID.Key(), "rects")
		if err != nil {
			log.Fatal(err)
		}
		for _, rOID := range rr.OIDs {
			row, err := db.Fetch(rOID)
			if err != nil {
				log.Fatal(err)
			}
			// rectangle(OID, x1, y1, x2, y2, layer)
			area := (row[3].Int - row[1].Int) * (row[4].Int - row[2].Int)
			layerArea[row[5].Int] += area
		}
	}
	fmt.Println("metal area by layer under cell39's paths (3-dot navigation):")
	for layer := int64(0); layer < 4; layer++ {
		fmt.Printf("  layer %d: %d\n", layer, layerArea[layer])
	}

	// Transitive closure over instances: count distinct cells reachable
	// from the top cell, the "transitive closure queries on arbitrary
	// networks" the paper relates its query shape to (§3).
	seen := map[corep.OID]bool{}
	stack := []corep.OID{cellOIDs[len(cellOIDs)-1]}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		sub, err := cell.Resolve(cur.Key(), "instances")
		if err != nil {
			log.Fatal(err)
		}
		stack = append(stack, sub.OIDs...)
	}
	fmt.Printf("cells in the transitive closure of cell39's instances: %d\n", len(seen))

	s := db.Snapshot().Disk
	fmt.Printf("simulated I/O for the navigation: %d reads, %d writes\n", s.Reads, s.Writes)

	// Output:
	// retrieve (cell.paths.name) where cell.OID = 39 → metal36 metal43 metal58 metal24
	// metal area by layer under cell39's paths (3-dot navigation):
	//   layer 0: 1406
	//   layer 1: 3340
	//   layer 2: 6197
	//   layer 3: 4603
	// cells in the transitive closure of cell39's instances: 14
	// simulated I/O for the navigation: 20 reads, 0 writes
}

// The object API on the file-backed storage engine: a database of
// groups and persons is created, closed and reopened, and every primary
// representation (OID list, stored procedural query, inline values)
// reads back after the checkpoint that Close takes. The stored query is
// evaluated afresh, so it sees a person inserted just before the close.
func ExampleOpenDatabaseFile() {
	dir, err := os.MkdirTemp("", "corep-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "groups.db")

	// First session: create the schema and the data, then close.
	db, err := corep.OpenDatabaseFile(path, 100)
	if err != nil {
		log.Fatal(err)
	}
	person, err := db.CreateRelation("person",
		corep.IntField("OID"), corep.StrField("name"), corep.IntField("age"))
	if err != nil {
		log.Fatal(err)
	}
	var oids []corep.OID
	var rows []corep.Row
	for i, p := range []struct {
		name string
		age  int64
	}{{"John", 62}, {"Mary", 62}, {"Jill", 8}} {
		row := corep.Row{corep.Int(int64(i + 1)), corep.Str(p.name), corep.Int(p.age)}
		oid, err := person.Insert(row)
		if err != nil {
			log.Fatal(err)
		}
		oids = append(oids, oid)
		rows = append(rows, row)
	}
	group, err := db.CreateRelation("group",
		corep.IntField("key"), corep.StrField("name"), corep.ChildrenField("members"))
	if err != nil {
		log.Fatal(err)
	}
	for key, members := range []corep.Children{
		corep.OIDChildren(oids[0], oids[1]),
		corep.ProcChildren(`retrieve (person.all) where person.age >= 60`),
		corep.ValueChildren(person, rows[1], rows[2]),
	} {
		if _, err := group.InsertWith(
			corep.Row{corep.Int(int64(key + 1)), corep.Str(fmt.Sprintf("group%d", key+1)), corep.Value{}},
			map[string]corep.Children{"members": members}); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := person.Insert(corep.Row{corep.Int(4), corep.Str("Elder04"), corep.Int(64)}); err != nil {
		log.Fatal(err)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// Second session: reopen and query through every representation.
	db, err = corep.OpenDatabaseFile(path, 100)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Println("relations:", db.Relations())
	for _, key := range []int64{1, 2, 3} {
		names, err := db.RetrievePath("group", "members", "name", key, key)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("group %d members:", key)
		for _, n := range names {
			fmt.Printf(" %s", n.Str)
		}
		fmt.Println()
	}

	// Output:
	// relations: [group person]
	// group 1 members: John Mary
	// group 2 members: John Mary Elder04
	// group 3 members: Mary Jill
}
