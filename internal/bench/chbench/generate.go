package chbench

import (
	"fmt"
	"math/rand"

	"repro/internal/exec/par"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Config sizes the generated CH database (TPC-C cardinalities scaled for
// laptop runs; the per-warehouse ratios follow the spec).
type Config struct {
	Warehouses    int
	DistrictsPerW int
	CustomersPerD int
	OrdersPerD    int
	Items         int
	Suppliers     int
	Seed          int64
}

// DefaultConfig is a small but structurally faithful instance.
func DefaultConfig() Config {
	return Config{Warehouses: 2, DistrictsPerW: 10, CustomersPerD: 100, OrdersPerD: 150, Items: 1000, Suppliers: 100, Seed: 1}
}

// Data holds the N-ary master relations of the CH database.
type Data struct {
	Config    Config
	Warehouse *storage.Relation
	District  *storage.Relation
	Customer  *storage.Relation
	Orders    *storage.Relation
	Orderline *storage.Relation
	Item      *storage.Relation
	Stock     *storage.Relation
	Supplier  *storage.Relation
}

// Surrogate key encodings for the composite TPC-C keys.
func dKey(w, d int) int64    { return int64(w*100 + d) }
func cKey(w, d, c int) int64 { return dKey(w, d)*100000 + int64(c) }
func oKey(w, d, o int) int64 { return dKey(w, d)*10000000 + int64(o) }
func sKey(w, i int) int64    { return int64(w)*10000000 + int64(i) }

// Generate builds the database deterministically.
func Generate(cfg Config) *Data {
	if cfg.Warehouses <= 0 {
		cfg = DefaultConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Data{Config: cfg}
	states := []string{"AA", "AB", "BA", "BC", "CA", "CD", "DE", "EF", "FG", "GH"}
	lastNames := []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

	// warehouse
	{
		b := storage.NewBuilder(warehouseSchema)
		n := cfg.Warehouses
		ids := make([]int64, n)
		names := make([]string, n)
		streets := make([]string, n)
		cities := make([]string, n)
		sts := make([]string, n)
		zips := make([]int64, n)
		taxes := make([]int64, n)
		ytds := make([]int64, n)
		for i := 0; i < n; i++ {
			ids[i] = int64(i)
			names[i] = fmt.Sprintf("WH%03d", i)
			streets[i] = fmt.Sprintf("STREET%04d", rng.Intn(1000))
			cities[i] = fmt.Sprintf("CITY%03d", rng.Intn(100))
			sts[i] = states[rng.Intn(len(states))]
			zips[i] = int64(rng.Intn(90000) + 10000)
			taxes[i] = int64(rng.Intn(2000))
			ytds[i] = 30000000
		}
		b.SetInts(0, ids).SetStrings(1, names).SetStrings(2, streets).SetStrings(3, cities)
		b.SetStrings(4, sts).SetInts(5, zips).SetInts(6, taxes).SetInts(7, ytds)
		d.Warehouse = b.Build(storage.NSM(warehouseSchema.Width()))
	}

	// district
	{
		n := cfg.Warehouses * cfg.DistrictsPerW
		b := storage.NewBuilder(districtSchema)
		cols := newIntCols(4)
		var names, streets, cities, sts []string
		var zips, taxes, ytds, nexts []int64
		for w := 0; w < cfg.Warehouses; w++ {
			for di := 0; di < cfg.DistrictsPerW; di++ {
				cols[0] = append(cols[0], dKey(w, di))
				cols[1] = append(cols[1], int64(di))
				cols[2] = append(cols[2], int64(w))
				names = append(names, fmt.Sprintf("DIST%02d", di))
				streets = append(streets, fmt.Sprintf("STREET%04d", rng.Intn(1000)))
				cities = append(cities, fmt.Sprintf("CITY%03d", rng.Intn(100)))
				sts = append(sts, states[rng.Intn(len(states))])
				zips = append(zips, int64(rng.Intn(90000)+10000))
				taxes = append(taxes, int64(rng.Intn(2000)))
				ytds = append(ytds, 3000000)
				nexts = append(nexts, int64(cfg.OrdersPerD))
			}
		}
		_ = n
		b.SetInts(0, cols[0]).SetInts(1, cols[1]).SetInts(2, cols[2]).SetStrings(3, names)
		b.SetStrings(4, streets).SetStrings(5, cities).SetStrings(6, sts).SetInts(7, zips)
		b.SetInts(8, taxes).SetInts(9, ytds).SetInts(10, nexts)
		d.District = b.Build(storage.NSM(districtSchema.Width()))
	}

	// customer
	{
		b := storage.NewBuilder(customerSchema)
		var key, id, dd, ww, zip, phone, since, lim, disc, bal, ytd, pcnt []int64
		var first, middle, last, street, city, st, credit, data []string
		for w := 0; w < cfg.Warehouses; w++ {
			for di := 0; di < cfg.DistrictsPerW; di++ {
				for c := 0; c < cfg.CustomersPerD; c++ {
					key = append(key, cKey(w, di, c))
					id = append(id, int64(c))
					dd = append(dd, int64(di))
					ww = append(ww, int64(w))
					first = append(first, fmt.Sprintf("FIRST%04d", rng.Intn(1000)))
					middle = append(middle, "OE")
					last = append(last, lastNames[rng.Intn(10)]+lastNames[rng.Intn(10)]+lastNames[rng.Intn(10)])
					street = append(street, fmt.Sprintf("STREET%04d", rng.Intn(1000)))
					city = append(city, fmt.Sprintf("CITY%03d", rng.Intn(100)))
					st = append(st, states[rng.Intn(len(states))])
					zip = append(zip, int64(rng.Intn(90000)+10000))
					phone = append(phone, rng.Int63n(1e10))
					since = append(since, int64(20100000+rng.Intn(1000)))
					if rng.Intn(10) == 0 {
						credit = append(credit, "BC")
					} else {
						credit = append(credit, "GC")
					}
					lim = append(lim, 5000000)
					disc = append(disc, int64(rng.Intn(5000)))
					bal = append(bal, -1000)
					ytd = append(ytd, 1000)
					pcnt = append(pcnt, 1)
					data = append(data, fmt.Sprintf("DATA%06d", rng.Intn(100000)))
				}
			}
		}
		b.SetInts(0, key).SetInts(1, id).SetInts(2, dd).SetInts(3, ww)
		b.SetStrings(4, first).SetStrings(5, middle).SetStrings(6, last).SetStrings(7, street)
		b.SetStrings(8, city).SetStrings(9, st).SetInts(10, zip).SetInts(11, phone)
		b.SetInts(12, since).SetStrings(13, credit).SetInts(14, lim).SetInts(15, disc)
		b.SetInts(16, bal).SetInts(17, ytd).SetInts(18, pcnt).SetStrings(19, data)
		d.Customer = b.Build(storage.NSM(customerSchema.Width()))
	}

	// orders + orderline
	{
		ob := storage.NewBuilder(ordersSchema)
		lb := storage.NewBuilder(orderlineSchema)
		var okeyC, oid, odid, owid, ockey, oentry, ocarrier, oolcnt, oalllocal []int64
		var lokey, lnum, liid, lsw, ldel, lqty, lamt []int64
		var ldist []string
		for w := 0; w < cfg.Warehouses; w++ {
			for di := 0; di < cfg.DistrictsPerW; di++ {
				for o := 0; o < cfg.OrdersPerD; o++ {
					okeyC = append(okeyC, oKey(w, di, o))
					oid = append(oid, int64(o))
					odid = append(odid, int64(di))
					owid = append(owid, int64(w))
					ockey = append(ockey, cKey(w, di, rng.Intn(cfg.CustomersPerD)))
					entry := int64(20120000 + rng.Intn(730))
					oentry = append(oentry, entry)
					ocarrier = append(ocarrier, int64(rng.Intn(10)))
					cnt := rng.Intn(11) + 5 // 5..15 lines per order (TPC-C)
					oolcnt = append(oolcnt, int64(cnt))
					oalllocal = append(oalllocal, 1)
					for l := 0; l < cnt; l++ {
						lokey = append(lokey, oKey(w, di, o))
						lnum = append(lnum, int64(l+1))
						liid = append(liid, int64(rng.Intn(cfg.Items)))
						lsw = append(lsw, int64(w))
						ldel = append(ldel, entry+int64(rng.Intn(30)))
						lqty = append(lqty, int64(rng.Intn(10)+1))
						lamt = append(lamt, rng.Int63n(100000)+100)
						ldist = append(ldist, fmt.Sprintf("DIST%02d", di))
					}
				}
			}
		}
		ob.SetInts(0, okeyC).SetInts(1, oid).SetInts(2, odid).SetInts(3, owid)
		ob.SetInts(4, ockey).SetInts(5, oentry).SetInts(6, ocarrier).SetInts(7, oolcnt)
		ob.SetInts(8, oalllocal)
		d.Orders = ob.Build(storage.NSM(ordersSchema.Width()))

		lb.SetInts(0, lokey).SetInts(1, lnum).SetInts(2, liid).SetInts(3, lsw)
		lb.SetInts(4, ldel).SetInts(5, lqty).SetInts(6, lamt).SetStrings(7, ldist)
		d.Orderline = lb.Build(storage.NSM(orderlineSchema.Width()))
	}

	// item
	{
		b := storage.NewBuilder(itemSchema)
		n := cfg.Items
		ids := make([]int64, n)
		ims := make([]int64, n)
		names := make([]string, n)
		prices := make([]int64, n)
		datas := make([]string, n)
		for i := 0; i < n; i++ {
			ids[i] = int64(i)
			ims[i] = int64(rng.Intn(10000))
			names[i] = fmt.Sprintf("ITEM%06d", i)
			prices[i] = rng.Int63n(10000) + 100
			if rng.Intn(10) == 0 {
				datas[i] = fmt.Sprintf("ORIGINAL%05d", rng.Intn(10000))
			} else {
				datas[i] = fmt.Sprintf("DATA%08d", rng.Intn(10000000))
			}
		}
		b.SetInts(0, ids).SetInts(1, ims).SetStrings(2, names).SetInts(3, prices).SetStrings(4, datas)
		d.Item = b.Build(storage.NSM(itemSchema.Width()))
	}

	// stock
	{
		b := storage.NewBuilder(stockSchema)
		var key, iid, wid, qty, ytd, cnt, supp []int64
		var data []string
		for w := 0; w < cfg.Warehouses; w++ {
			for i := 0; i < cfg.Items; i++ {
				key = append(key, sKey(w, i))
				iid = append(iid, int64(i))
				wid = append(wid, int64(w))
				qty = append(qty, int64(rng.Intn(91)+10))
				ytd = append(ytd, 0)
				cnt = append(cnt, 0)
				supp = append(supp, int64((w*i)%cfg.Suppliers)) // CH's supplier linkage mod rule
				data = append(data, fmt.Sprintf("SDATA%07d", rng.Intn(1000000)))
			}
		}
		b.SetInts(0, key).SetInts(1, iid).SetInts(2, wid).SetInts(3, qty)
		b.SetInts(4, ytd).SetInts(5, cnt).SetInts(6, supp).SetStrings(7, data)
		d.Stock = b.Build(storage.NSM(stockSchema.Width()))
	}

	// supplier
	{
		b := storage.NewBuilder(supplierSchema)
		n := cfg.Suppliers
		keys := make([]int64, n)
		names := make([]string, n)
		nations := make([]int64, n)
		accts := make([]int64, n)
		for i := 0; i < n; i++ {
			keys[i] = int64(i)
			names[i] = fmt.Sprintf("SUPPLIER%04d", i)
			nations[i] = int64(rng.Intn(25))
			accts[i] = rng.Int63n(1000000)
		}
		b.SetInts(0, keys).SetStrings(1, names).SetInts(2, nations).SetInts(3, accts)
		d.Supplier = b.Build(storage.NSM(supplierSchema.Width()))
	}
	return d
}

func newIntCols(n int) [][]int64 { return make([][]int64, n) }

// Tables lists the relations.
func (d *Data) Tables() []*storage.Relation {
	return []*storage.Relation{
		d.Warehouse, d.District, d.Customer, d.Orders, d.Orderline, d.Item, d.Stock, d.Supplier,
	}
}

// Catalog materializes the database under a layout kind ("row"/"column")
// with optional per-table overrides (the "hybrid" instance).
func (d *Data) Catalog(kind string, overrides map[string]storage.Layout) *plan.Catalog {
	c := plan.NewCatalog()
	for _, rel := range d.Tables() {
		l := rel.Layout
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
