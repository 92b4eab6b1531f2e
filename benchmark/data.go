package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Table shapes. orders is the table every read workload but wide_result
// hits: 12 word columns, so 2M rows are 183 MiB of column words — far
// past any cache this process can count on. recent is 6 MiB, scanned in a
// fraction of the time its rows take to encode, so wide_result measures
// encoding, not scanning. events takes the inserts.
const (
	ordersSpec = "id:int64,customer:int64,m1:int64,m2:int64,m3:int64,m4:int64,m5:int64,m6:int64,price:float64,discount:float64,status:string,region:string"
	recentSpec = "id:int64,customer:int64,m1:int64,m2:int64,price:float64,discount:float64,status:string,region:string"
	eventsSpec = "id:int64,customer:int64,amount:float64,kind:int64"

	ordersWidth = 12
	recentWidth = 8
	eventsWidth = 4

	customerSpace = 1_000_000 // customer is uniform over [0, customerSpace)
	statusValues  = 8
	regionValues  = 64

	insertRows  = 4   // rows per insert request
	insertRing  = 256 // distinct insert bodies a writer cycles through
	pointPlans  = 64  // distinct point lookups of point_hot
	warmupPlays = 3   // set-up sends every distinct request this many times

	// wide_result returns this many rows. A reply of 10,000 rows took 8 ms,
	// and the one request in twenty that met a collector cycle took 12: p95
	// sat on that edge and moved by a fifth from run to run. At 50,000 rows
	// (39 ms) a cycle adds a tenth to the requests it meets, and p95 repeats.
	wideRows = 50_000
)

// dataset is everything generated from the seed before any clock starts:
// the CSV the system loads and the ids the point plans look up.
type dataset struct {
	ordersRows, recentRows int
	ordersCSV, recentCSV   []byte
	hotIDs                 []int64 // ids of existing orders rows
	insertBodies           [][]byte
	insertPlans            []plan.Insert
}

func generate(seed int64, ordersRows, recentRows int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{ordersRows: ordersRows, recentRows: recentRows}

	// orders.id is a seeded permutation of [0, rows): unique, and in no
	// order a scan or the hash index could exploit.
	ids := rng.Perm(ordersRows)
	d.ordersCSV = tableCSV(rng, ordersRows, 6, func(i int) int64 { return int64(ids[i]) })
	// recent.id counts up, so `id < wideRows` selects exactly wideRows rows.
	d.recentCSV = tableCSV(rng, recentRows, 2, func(i int) int64 { return int64(i) })

	d.hotIDs = make([]int64, pointPlans)
	for i := range d.hotIDs {
		d.hotIDs[i] = int64(ids[rng.Intn(ordersRows)])
	}

	next := int64(0)
	for i := 0; i < insertRing; i++ {
		rows := make([][]storage.Word, insertRows)
		for r := range rows {
			rows[r] = []storage.Word{
				storage.EncodeInt(next),
				storage.EncodeInt(rng.Int63n(customerSpace)),
				storage.EncodeFloat(float64(rng.Intn(100_000)) / 100),
				storage.EncodeInt(rng.Int63n(16)),
			}
			next++
		}
		p := plan.Insert{Table: "events", Rows: rows}
		d.insertPlans = append(d.insertPlans, p)
		d.insertBodies = append(d.insertBodies, mustBody(p))
	}
	return d
}

// tableCSV renders rows of: id, customer, `measures` int64 columns, two
// float64 columns, status, region — the shape shared by orders and recent.
func tableCSV(rng *rand.Rand, rows, measures int, id func(int) int64) []byte {
	buf := make([]byte, 0, rows*(30+5*measures))
	for i := 0; i < rows; i++ {
		buf = strconv.AppendInt(buf, id(i), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, rng.Int63n(customerSpace), 10)
		for m := 0; m < measures; m++ {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, rng.Int63n(1000), 10)
		}
		for f := 0; f < 2; f++ {
			cents := rng.Intn(100_000)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(cents/100), 10)
			buf = append(buf, '.', byte('0'+cents%100/10), byte('0'+cents%10))
		}
		buf = append(buf, ",st-"...)
		buf = strconv.AppendInt(buf, int64(rng.Intn(statusValues)), 10)
		buf = append(buf, ",region-"...)
		buf = strconv.AppendInt(buf, int64(rng.Intn(regionValues)), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// request is one HTTP request of a workload: the POST /query body, the
// plan it encodes, and the rowCount a correct reply carries.
type request struct {
	body     []byte
	plan     plan.Node
	wantRows int
}

func (r request) insert() bool {
	_, ok := r.plan.(plan.Insert)
	return ok
}

func mustBody(p plan.Node) []byte {
	data, err := plan.MarshalNode(p)
	if err != nil {
		panic(fmt.Sprintf("benchmark: plan does not marshal: %v", err))
	}
	var b bytes.Buffer
	b.WriteString(`{"plan":`)
	b.Write(data)
	b.WriteByte('}')
	return b.Bytes()
}

// workload is one named traffic mix. reads are the distinct read plans a
// closed-loop client cycles through; a workload without reads sends
// inserts from its closed-loop client. writeRate > 0 adds one open-loop
// writer at that many commits per second.
type workload struct {
	name      string
	why       string
	clients   int
	reads     []plan.Node
	writeRate int
	tracedN   int // requests in the traced pass
}

func (w *workload) writes() bool { return len(w.reads) == 0 || w.writeRate > 0 }

var workloadNames = []string{"scan_agg", "point_hot", "wide_result", "insert_small", "read_under_writes"}

func workloadByName(name string, d *dataset) (*workload, error) {
	switch name {
	case "scan_agg":
		return &workload{
			name:    name,
			why:     "9 cached aggregates over a table far larger than the caches; jit.exec is the request, so engine, layout and morsel-scheduling changes show here and serving-path changes must not",
			clients: 1, // a scan already occupies every pool worker
			reads:   scanAggPlans(),
			tracedN: 90, // 10 of each plan; every one is seven multi-millisecond scans
		}, nil
	case "point_hot":
		return &workload{
			name:    name,
			why:     "64 cached hash-index lookups returning one row; decode, key, cache lookup, pin, a one-row execution with its result arena, encode and the wire are the request; a scan-loop change must not show here",
			clients: 2,
			reads:   pointPlanSet(d.hotIDs),
			tracedN: 2000,
		}, nil
	case "wide_result":
		return &workload{
			name:    name,
			why:     "one cached plan returning 50,000 rows x 8 columns from a small table; result encoding is the request - same layers as point_hot with the opposite result size",
			clients: 1,
			reads:   []plan.Node{widePlan()},
			tracedN: 24, // each is six 40 ms requests
		}, nil
	case "insert_small":
		return &workload{
			name:    name,
			why:     "4-row inserts through WAL append and copy-on-write commit; the write-path counterpart of point_hot",
			clients: 1,
			tracedN: 2000,
		}, nil
	case "read_under_writes":
		return &workload{
			name:      name,
			why:       "point_hot's plans from one reader while an open-loop writer commits 50 times a second into another table; every commit clears the plan cache, so the miss path sets the tail",
			clients:   1,
			reads:     pointPlanSet(d.hotIDs),
			writeRate: 50,
			tracedN:   2000,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// scanAggPlans are the paper's Fig-3-style aggregates: `customer < c` at
// four selectivities, each as four plain sums and as one sum grouped by
// region, and one sum with no predicate. Sums are over int64 so parallel
// and serial engines agree exactly. Nine plans, not eight: the plans take
// 5 to 30 ms, and with an even count the median request falls into the gap
// between two plans' times and jumps from one to the other between runs.
func scanAggPlans() []plan.Node {
	out := []plan.Node{plan.Aggregate{
		Child: plan.Scan{Table: "orders", Cols: []int{7}},
		Aggs:  []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "sum_m6"}},
	}}
	for _, sel := range []float64{0.001, 0.01, 0.1, 1.0} {
		filter := expr.Cmp{Attr: 1, Op: expr.Lt, Val: storage.EncodeInt(int64(sel * customerSpace))}
		out = append(out,
			plan.Aggregate{
				Child: plan.Scan{Table: "orders", Filter: filter, Cols: []int{2, 3, 4, 5}},
				Aggs: []expr.AggSpec{
					{Kind: expr.Sum, Arg: expr.IntCol(0), Name: "sum_m1"},
					{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "sum_m2"},
					{Kind: expr.Sum, Arg: expr.IntCol(2), Name: "sum_m3"},
					{Kind: expr.Sum, Arg: expr.IntCol(3), Name: "sum_m4"},
				},
			},
			plan.Aggregate{
				Child:   plan.Scan{Table: "orders", Filter: filter, Cols: []int{11, 6}},
				GroupBy: []int{0},
				Aggs:    []expr.AggSpec{{Kind: expr.Sum, Arg: expr.IntCol(1), Name: "sum_m5"}},
			})
	}
	return out
}

func pointPlanSet(ids []int64) []plan.Node {
	out := make([]plan.Node, len(ids))
	for i, id := range ids {
		out[i] = plan.Scan{
			Table:  "orders",
			Filter: expr.Cmp{Attr: 0, Op: expr.Eq, Val: storage.EncodeInt(id)},
			Cols:   []int{0, 1, 2, 8, 10, 11},
		}
	}
	return out
}

func widePlan() plan.Node {
	return plan.Scan{
		Table:  "recent",
		Filter: expr.Cmp{Attr: 0, Op: expr.Lt, Val: storage.EncodeInt(wideRows)},
		Cols:   []int{0, 1, 2, 3, 4, 5, 6, 7},
	}
}
