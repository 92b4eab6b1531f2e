// Package sapsd reconstructs the SAP Sales & Distribution benchmark the
// paper takes from the HYRISE evaluation (Grund et al., VLDB '10): five SAP
// master/transaction tables on public schema information, filled with
// deterministic random data observing uniqueness constraints — exactly the
// authors' own setup ("we filled the database with randomly generated
// data"). The twelve queries are reconstructed from the paper (Q1, Q3, Q6,
// Q7, Q8 are described explicitly; the remainder follow the benchmark's
// documented character: customer/document point lookups, scans-with-LIKE,
// grouped analytics and one modifying query). The reconstruction is
// recorded in DESIGN.md.
package sapsd

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/exec/par"
	"repro/internal/expr"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Config sizes the generated database.
type Config struct {
	Customers int // ADRC/KNA1 rows; VBAK = 4x, VBAP = 16x, MARA = x/2
	Seed      int64
}

// DefaultConfig is a laptop-scale instance.
func DefaultConfig() Config { return Config{Customers: 2000, Seed: 1} }

// Data holds the master (N-ary) relations; layout siblings are derived
// per experiment with Catalog.
type Data struct {
	Config Config
	ADRC   *storage.Relation
	KNA1   *storage.Relation
	VBAK   *storage.Relation
	VBAP   *storage.Relation
	MARA   *storage.Relation
}

// Table names and attribute orders (subset of the public SAP layouts).
var (
	adrcSchema = storage.NewSchema("ADRC",
		storage.Attribute{Name: "ADDRNUMBER", Type: storage.Int64}, // 0, PK
		storage.Attribute{Name: "NAME_CO", Type: storage.String},   // 1
		storage.Attribute{Name: "NAME1", Type: storage.String},     // 2
		storage.Attribute{Name: "NAME2", Type: storage.String},     // 3
		storage.Attribute{Name: "KUNNR", Type: storage.Int64},      // 4
		storage.Attribute{Name: "CITY1", Type: storage.String},     // 5
		storage.Attribute{Name: "POST_CODE1", Type: storage.Int64}, // 6
		storage.Attribute{Name: "STREET", Type: storage.String},    // 7
		storage.Attribute{Name: "COUNTRY", Type: storage.String},   // 8
		storage.Attribute{Name: "REGION", Type: storage.String},    // 9
	)
	kna1Schema = storage.NewSchema("KNA1",
		storage.Attribute{Name: "KUNNR", Type: storage.Int64}, // 0, PK
		storage.Attribute{Name: "LAND1", Type: storage.String},
		storage.Attribute{Name: "NAME1", Type: storage.String},
		storage.Attribute{Name: "NAME2", Type: storage.String},
		storage.Attribute{Name: "ORT01", Type: storage.String},
		storage.Attribute{Name: "PSTLZ", Type: storage.Int64},
		storage.Attribute{Name: "REGIO", Type: storage.String},
		storage.Attribute{Name: "STRAS", Type: storage.String},
		storage.Attribute{Name: "TELF1", Type: storage.Int64},
		storage.Attribute{Name: "ADRNR", Type: storage.Int64},
	)
	vbakSchema = storage.NewSchema("VBAK",
		storage.Attribute{Name: "VBELN", Type: storage.Int64}, // 0, PK
		storage.Attribute{Name: "ERDAT", Type: storage.Int64}, // creation date
		storage.Attribute{Name: "ERZET", Type: storage.Int64}, // creation time
		storage.Attribute{Name: "ERNAM", Type: storage.String},
		storage.Attribute{Name: "AUDAT", Type: storage.Int64}, // document date
		storage.Attribute{Name: "VBTYP", Type: storage.String},
		storage.Attribute{Name: "AUART", Type: storage.String},
		storage.Attribute{Name: "NETWR", Type: storage.Int64}, // net value (cents)
		storage.Attribute{Name: "WAERK", Type: storage.String},
		storage.Attribute{Name: "KUNNR", Type: storage.Int64}, // customer FK
	)
	vbapSchema = storage.NewSchema("VBAP",
		storage.Attribute{Name: "VBELN", Type: storage.Int64}, // 0, FK -> VBAK (RB-tree)
		storage.Attribute{Name: "POSNR", Type: storage.Int64}, // 1, item number
		storage.Attribute{Name: "MATNR", Type: storage.Int64}, // 2, material FK
		storage.Attribute{Name: "ARKTX", Type: storage.String},
		storage.Attribute{Name: "PSTYV", Type: storage.String},
		storage.Attribute{Name: "NETWR", Type: storage.Int64},
		storage.Attribute{Name: "WAERK", Type: storage.String},
		storage.Attribute{Name: "KWMENG", Type: storage.Int64}, // quantity
		storage.Attribute{Name: "MEINS", Type: storage.String},
		storage.Attribute{Name: "WERKS", Type: storage.String},
	)
	maraSchema = storage.NewSchema("MARA",
		storage.Attribute{Name: "MATNR", Type: storage.Int64}, // 0, PK
		storage.Attribute{Name: "ERSDA", Type: storage.Int64},
		storage.Attribute{Name: "ERNAM", Type: storage.String},
		storage.Attribute{Name: "MTART", Type: storage.String},
		storage.Attribute{Name: "MATKL", Type: storage.String},
		storage.Attribute{Name: "MEINS", Type: storage.String},
		storage.Attribute{Name: "BRGEW", Type: storage.Int64},
		storage.Attribute{Name: "NTGEW", Type: storage.Int64},
		storage.Attribute{Name: "GEWEI", Type: storage.String},
		storage.Attribute{Name: "VOLUM", Type: storage.Int64},
	)
)

// Generate builds the database.
func Generate(cfg Config) *Data {
	if cfg.Customers <= 0 {
		cfg = DefaultConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Data{Config: cfg}

	nCust := cfg.Customers
	nOrders := 4 * nCust
	nItems := 16 * nCust
	nMat := nCust/2 + 10

	names := namePool(rng, nCust/20+10, "COMPANY")
	names2 := namePool(rng, nCust/25+8, "DIVISION")
	cities := namePool(rng, 40, "CITY")
	streets := namePool(rng, 200, "STREET")
	countries := []string{"DE", "US", "NL", "FR", "JP", "BR", "IN", "CN"}
	regions := namePool(rng, 16, "REG")

	// ADRC: one address per customer, ADDRNUMBER unique, KUNNR unique link.
	{
		b := storage.NewBuilder(adrcSchema)
		addr := make([]int64, nCust)
		nameCo := make([]string, nCust)
		name1 := make([]string, nCust)
		name2 := make([]string, nCust)
		kunnr := make([]int64, nCust)
		city := make([]string, nCust)
		post := make([]int64, nCust)
		street := make([]string, nCust)
		country := make([]string, nCust)
		region := make([]string, nCust)
		for i := 0; i < nCust; i++ {
			addr[i] = int64(100000 + i)
			nameCo[i] = pick(rng, names) + " CO"
			name1[i] = pick(rng, names)
			name2[i] = pick(rng, names2)
			kunnr[i] = int64(i)
			city[i] = pick(rng, cities)
			post[i] = int64(rng.Intn(90000) + 10000)
			street[i] = pick(rng, streets)
			country[i] = pick(rng, countries)
			region[i] = pick(rng, regions)
		}
		b.SetInts(0, addr).SetStrings(1, nameCo).SetStrings(2, name1).SetStrings(3, name2)
		b.SetInts(4, kunnr).SetStrings(5, city).SetInts(6, post).SetStrings(7, street)
		b.SetStrings(8, country).SetStrings(9, region)
		d.ADRC = b.Build(storage.NSM(adrcSchema.Width()))
	}

	// KNA1: customer master, KUNNR unique.
	{
		b := storage.NewBuilder(kna1Schema)
		kunnr := make([]int64, nCust)
		land := make([]string, nCust)
		name1 := make([]string, nCust)
		name2 := make([]string, nCust)
		ort := make([]string, nCust)
		pstlz := make([]int64, nCust)
		regio := make([]string, nCust)
		stras := make([]string, nCust)
		telf := make([]int64, nCust)
		adrnr := make([]int64, nCust)
		for i := 0; i < nCust; i++ {
			kunnr[i] = int64(i)
			land[i] = pick(rng, countries)
			name1[i] = pick(rng, names)
			name2[i] = pick(rng, names2)
			ort[i] = pick(rng, cities)
			pstlz[i] = int64(rng.Intn(90000) + 10000)
			regio[i] = pick(rng, regions)
			stras[i] = pick(rng, streets)
			telf[i] = rng.Int63n(1e9)
			adrnr[i] = int64(100000 + i)
		}
		b.SetInts(0, kunnr).SetStrings(1, land).SetStrings(2, name1).SetStrings(3, name2)
		b.SetStrings(4, ort).SetInts(5, pstlz).SetStrings(6, regio).SetStrings(7, stras)
		b.SetInts(8, telf).SetInts(9, adrnr)
		d.KNA1 = b.Build(storage.NSM(kna1Schema.Width()))
	}

	// VBAK: orders, VBELN unique, dates over ~2 years.
	docTypes := []string{"TA", "OR", "RE", "CR"}
	users := namePool(rng, 30, "USER")
	{
		b := storage.NewBuilder(vbakSchema)
		vbeln := make([]int64, nOrders)
		erdat := make([]int64, nOrders)
		erzet := make([]int64, nOrders)
		ernam := make([]string, nOrders)
		audat := make([]int64, nOrders)
		vbtyp := make([]string, nOrders)
		auart := make([]string, nOrders)
		netwr := make([]int64, nOrders)
		waerk := make([]string, nOrders)
		kunnr := make([]int64, nOrders)
		for i := 0; i < nOrders; i++ {
			vbeln[i] = int64(1000000 + i)
			day := int64(20120000 + rng.Intn(730))
			erdat[i] = day
			erzet[i] = int64(rng.Intn(86400))
			ernam[i] = pick(rng, users)
			audat[i] = day
			vbtyp[i] = "C"
			auart[i] = pick(rng, docTypes)
			netwr[i] = rng.Int63n(5_000_00) + 100
			waerk[i] = "EUR"
			kunnr[i] = int64(rng.Intn(nCust))
		}
		b.SetInts(0, vbeln).SetInts(1, erdat).SetInts(2, erzet).SetStrings(3, ernam)
		b.SetInts(4, audat).SetStrings(5, vbtyp).SetStrings(6, auart).SetInts(7, netwr)
		b.SetStrings(8, waerk).SetInts(9, kunnr)
		d.VBAK = b.Build(storage.NSM(vbakSchema.Width()))
	}

	// VBAP: order items, VBELN references VBAK (about 4 items per order).
	texts := namePool(rng, 300, "ITEMTEXT")
	units := []string{"ST", "KG", "L", "M"}
	plants := namePool(rng, 12, "PLANT")
	{
		b := storage.NewBuilder(vbapSchema)
		vbeln := make([]int64, nItems)
		posnr := make([]int64, nItems)
		matnr := make([]int64, nItems)
		arktx := make([]string, nItems)
		pstyv := make([]string, nItems)
		netwr := make([]int64, nItems)
		waerk := make([]string, nItems)
		kwmeng := make([]int64, nItems)
		meins := make([]string, nItems)
		werks := make([]string, nItems)
		for i := 0; i < nItems; i++ {
			order := i / 4
			vbeln[i] = int64(1000000 + order%nOrders)
			posnr[i] = int64(i%4)*10 + 10
			matnr[i] = int64(rng.Intn(nMat))
			arktx[i] = pick(rng, texts)
			pstyv[i] = "TAN"
			netwr[i] = rng.Int63n(1_000_00) + 10
			waerk[i] = "EUR"
			kwmeng[i] = rng.Int63n(100) + 1
			meins[i] = pick(rng, units)
			werks[i] = pick(rng, plants)
		}
		b.SetInts(0, vbeln).SetInts(1, posnr).SetInts(2, matnr).SetStrings(3, arktx)
		b.SetStrings(4, pstyv).SetInts(5, netwr).SetStrings(6, waerk).SetInts(7, kwmeng)
		b.SetStrings(8, meins).SetStrings(9, werks)
		d.VBAP = b.Build(storage.NSM(vbapSchema.Width()))
	}

	// MARA: materials, MATNR unique.
	matTypes := []string{"FERT", "ROH", "HALB", "HAWA", "DIEN"}
	{
		b := storage.NewBuilder(maraSchema)
		matnr := make([]int64, nMat)
		ersda := make([]int64, nMat)
		ernam := make([]string, nMat)
		mtart := make([]string, nMat)
		matkl := make([]string, nMat)
		meins := make([]string, nMat)
		brgew := make([]int64, nMat)
		ntgew := make([]int64, nMat)
		gewei := make([]string, nMat)
		volum := make([]int64, nMat)
		for i := 0; i < nMat; i++ {
			matnr[i] = int64(i)
			ersda[i] = int64(20100000 + rng.Intn(1460))
			ernam[i] = pick(rng, users)
			mtart[i] = pick(rng, matTypes)
			matkl[i] = pick(rng, regions)
			meins[i] = pick(rng, units)
			brgew[i] = rng.Int63n(10000)
			ntgew[i] = rng.Int63n(9000)
			gewei[i] = "KG"
			volum[i] = rng.Int63n(1000)
		}
		b.SetInts(0, matnr).SetInts(1, ersda).SetStrings(2, ernam).SetStrings(3, mtart)
		b.SetStrings(4, matkl).SetStrings(5, meins).SetInts(6, brgew).SetInts(7, ntgew)
		b.SetStrings(8, gewei).SetInts(9, volum)
		d.MARA = b.Build(storage.NSM(maraSchema.Width()))
	}
	return d
}

func namePool(rng *rand.Rand, n int, prefix string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s_%04d", prefix, i)
	}
	// Shuffle so dictionary codes are not correlated with generation order.
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

// Tables lists the relations of the database.
func (d *Data) Tables() []*storage.Relation {
	return []*storage.Relation{d.ADRC, d.KNA1, d.VBAK, d.VBAP, d.MARA}
}

// Catalog materializes the database under per-table layouts ("row" and
// "column" shorthands apply to all tables; explicit overrides win).
func (d *Data) Catalog(kind string, overrides map[string]storage.Layout) *plan.Catalog {
	c := plan.NewCatalog()
	for _, rel := range d.Tables() {
		l := rel.Layout // NSM master
		switch kind {
		case "row":
			l = storage.NSM(rel.Schema.Width())
		case "column":
			l = storage.DSM(rel.Schema.Width())
		}
		if o, ok := overrides[rel.Schema.Name]; ok {
			l = o
		}
		c.Add(rel.WithLayout(l, par.Serial()))
	}
	return c
}

// RegisterIndexes installs the paper's Figure 10 indexes: hash indexes on
// every primary key and one RB-tree on VBAP(VBELN).
func RegisterIndexes(c *plan.Catalog) {
	for _, tbl := range []string{"ADRC", "KNA1", "VBAK", "MARA"} {
		rel := c.Table(tbl)
		c.AddIndex(tbl, 0, index.BuildHash(rel.Access(0), rel.Rows(), par.Serial()))
	}
	vbap := c.Table("VBAP")
	c.AddIndex("VBAP", 0, index.BuildOn(index.NewRBTree(), vbap, 0, par.Serial()))
}

// QuerySet holds the twelve benchmark plans with bound parameters chosen
// to hit existing data. Plans are layout-independent: they reference
// tables by name and dictionary codes shared across layout siblings.
type QuerySet struct {
	Plans [12]plan.Node
}

// Queries builds the twelve queries against the database. The seed varies
// the bound parameters.
func (d *Data) Queries(seed int64) QuerySet {
	rng := rand.New(rand.NewSource(seed))
	nCust := d.Config.Customers

	adrc := d.ADRC.Schema
	kna1 := d.KNA1.Schema
	vbak := d.VBAK.Schema
	vbap := d.VBAP.Schema
	mara := d.MARA.Schema

	// Prefixes of length 10/11 keep the LIKE conjuncts selective (a few
	// percent each): "COMPANY_00%" rather than the match-all "COMPANY_%".
	name1Pfx := d.ADRC.StringOf(rng.Intn(d.ADRC.Rows()), adrc.Col("NAME1"))[:10]
	name2Pfx := d.ADRC.StringOf(rng.Intn(d.ADRC.Rows()), adrc.Col("NAME2"))[:11]
	likeName1 := d.ADRC.Dict(adrc.Col("NAME1")).MatchCodes(func(s string) bool { return strings.HasPrefix(s, name1Pfx) })
	likeName2 := d.ADRC.Dict(adrc.Col("NAME2")).MatchCodes(func(s string) bool { return strings.HasPrefix(s, name2Pfx) })
	custName := d.KNA1.Value(rng.Intn(d.KNA1.Rows()), kna1.Col("NAME1"))

	someKunnr := storage.EncodeInt(int64(rng.Intn(nCust)))
	someVbeln := storage.EncodeInt(int64(1000000 + rng.Intn(4*nCust)))
	sinceDate := storage.EncodeInt(20120000 + 365)

	var qs QuerySet

	// Q1 (paper Table IVa): scan-and-project with two LIKE conjuncts.
	qs.Plans[0] = plan.Scan{
		Table: "ADRC",
		Filter: expr.And{Preds: []expr.Pred{
			expr.InSet{Attr: adrc.Col("NAME1"), Set: likeName1},
			expr.InSet{Attr: adrc.Col("NAME2"), Set: likeName2},
		}},
		Cols: []int{adrc.Col("ADDRNUMBER"), adrc.Col("NAME_CO"), adrc.Col("NAME1"), adrc.Col("NAME2"), adrc.Col("KUNNR")},
	}
	// Q2: customer search by exact name (unindexed scan).
	qs.Plans[1] = plan.Scan{
		Table:  "KNA1",
		Filter: expr.Cmp{Attr: kna1.Col("NAME1"), Op: expr.Eq, Val: custName},
		Cols:   plan.AllCols(kna1),
	}
	// Q3 (paper Table IVa): select * from ADRC where KUNNR = $1.
	qs.Plans[2] = plan.Scan{
		Table:  "ADRC",
		Filter: expr.Cmp{Attr: adrc.Col("KUNNR"), Op: expr.Eq, Val: someKunnr},
		Cols:   plan.AllCols(adrc),
	}
	// Q4: open orders of a customer.
	qs.Plans[3] = plan.Scan{
		Table:  "VBAK",
		Filter: expr.Cmp{Attr: vbak.Col("KUNNR"), Op: expr.Eq, Val: someKunnr},
		Cols:   []int{vbak.Col("VBELN"), vbak.Col("AUDAT"), vbak.Col("NETWR")},
	}
	// Q5: revenue since a date (scan-heavy aggregation).
	qs.Plans[4] = plan.Aggregate{
		Child: plan.Scan{
			Table:  "VBAK",
			Filter: expr.Cmp{Attr: vbak.Col("AUDAT"), Op: expr.Ge, Val: sinceDate},
			Cols:   []int{vbak.Col("NETWR")},
		},
		Aggs: []expr.AggSpec{
			{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "revenue"},
			{Kind: expr.Count, Name: "orders"},
		},
	}
	// Q6: the modifying query — insert one order item (plan is rebuilt per
	// execution via InsertPlan; this instance inserts item 0).
	qs.Plans[5] = d.InsertPlan(0)
	// Q7: identity select on VBAK by primary key.
	qs.Plans[6] = plan.Scan{
		Table:  "VBAK",
		Filter: expr.Cmp{Attr: vbak.Col("VBELN"), Op: expr.Eq, Val: someVbeln},
		Cols:   plan.AllCols(vbak),
	}
	// Q8: identity select on VBAP by VBELN (RB-tree candidate).
	qs.Plans[7] = plan.Scan{
		Table:  "VBAP",
		Filter: expr.Cmp{Attr: vbap.Col("VBELN"), Op: expr.Eq, Val: someVbeln},
		Cols:   plan.AllCols(vbap),
	}
	// Q9: material demand: group order items by material.
	qs.Plans[8] = plan.Aggregate{
		Child:   plan.Scan{Table: "VBAP", Cols: []int{vbap.Col("MATNR"), vbap.Col("KWMENG")}},
		GroupBy: []int{0},
		Aggs: []expr.AggSpec{
			{Kind: expr.Count, Name: "items"},
			{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "qty"},
		},
	}
	// Q10: top customers by order count.
	qs.Plans[9] = plan.Limit{N: 10, Child: plan.Sort{
		Child: plan.Aggregate{
			Child:   plan.Scan{Table: "VBAK", Cols: []int{vbak.Col("KUNNR"), vbak.Col("NETWR")}},
			GroupBy: []int{0},
			Aggs: []expr.AggSpec{
				{Kind: expr.Count, Name: "orders"},
				{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "value"},
			},
		},
		Keys: []plan.SortKey{{Pos: 1, Desc: true}},
	}}
	// Q11: revenue per customer name (join VBAK ⋈ KNA1).
	qs.Plans[10] = plan.Aggregate{
		Child: plan.HashJoin{
			Left:     plan.Scan{Table: "KNA1", Cols: []int{kna1.Col("KUNNR"), kna1.Col("NAME1")}},
			Right:    plan.Scan{Table: "VBAK", Cols: []int{vbak.Col("KUNNR"), vbak.Col("NETWR")}},
			LeftKey:  0,
			RightKey: 0,
		},
		GroupBy: []int{1},
		Aggs:    []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(3), Name: "revenue"}},
	}
	// Q12: material-type statistics.
	qs.Plans[11] = plan.Aggregate{
		Child:   plan.Scan{Table: "MARA", Cols: []int{mara.Col("MTART"), mara.Col("BRGEW")}},
		GroupBy: []int{0},
		Aggs: []expr.AggSpec{
			{Kind: expr.Count, Name: "materials"},
			{Kind: expr.Avg, Arg: expr.IntCol(1), Name: "avg_weight"},
		},
	}
	return qs
}

// InsertPlan builds the Q6 insert for the i-th synthetic new order item.
// String attributes reuse existing dictionary codes so the plan is valid on
// every layout sibling.
func (d *Data) InsertPlan(i int) plan.Node {
	s := d.VBAP.Schema
	row := make([]storage.Word, s.Width())
	row[s.Col("VBELN")] = storage.EncodeInt(int64(9000000 + i))
	row[s.Col("POSNR")] = storage.EncodeInt(10)
	row[s.Col("MATNR")] = storage.EncodeInt(int64(i % 100))
	row[s.Col("ARKTX")] = d.VBAP.Value(i%d.VBAP.Rows(), s.Col("ARKTX"))
	row[s.Col("PSTYV")] = d.VBAP.Value(0, s.Col("PSTYV"))
	row[s.Col("NETWR")] = storage.EncodeInt(4999)
	row[s.Col("WAERK")] = d.VBAP.Value(0, s.Col("WAERK"))
	row[s.Col("KWMENG")] = storage.EncodeInt(int64(i%50 + 1))
	row[s.Col("MEINS")] = d.VBAP.Value(0, s.Col("MEINS"))
	row[s.Col("WERKS")] = d.VBAP.Value(0, s.Col("WERKS"))
	return plan.Insert{Table: "VBAP", Rows: [][]storage.Word{row}}
}

// Workload returns the twelve queries with uniform frequency — the input
// to the layout optimizer for the Figure 9 "hybrid" bars.
func (d *Data) Workload(seed int64) *workload.Workload {
	qs := d.Queries(seed)
	w := &workload.Workload{Name: "sap-sd"}
	for i, p := range qs.Plans {
		w.Add(fmt.Sprintf("Q%d", i+1), p, 1)
	}
	return w
}
