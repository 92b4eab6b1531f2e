package chbench

import (
	"fmt"
	"math/rand"

	"repro/internal/exec/par"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Tx executes the CH-benchmark's transactional side against one catalog.
// HyPer runs OLTP statements as precompiled code, not through the query
// compiler; accordingly the transactions here are plain Go functions over
// the storage API with index-assisted point access. They give the
// benchmark its "mixed workload" character: NewOrder appends orders and
// order lines (growing exactly the tables the analytical queries scan) and
// Payment performs indexed read-modify-write on customer balances.
type Tx struct {
	data *Data
	rng  *rand.Rand

	customer  *storage.Relation
	district  *storage.Relation
	orders    *storage.Relation
	orderline *storage.Relation
	stock     *storage.Relation

	custIdx  index.Index // c_key -> row
	distIdx  index.Index // d_key -> row
	stockIdx index.Index // s_key -> row

	nextOID []int // per district-row counter
}

// NewTx prepares transaction state (indexes on the point-access paths).
func NewTx(d *Data, cat *plan.Catalog, seed int64) *Tx {
	t := &Tx{
		data:      d,
		rng:       rand.New(rand.NewSource(seed)),
		customer:  cat.Table("customer"),
		district:  cat.Table("district"),
		orders:    cat.Table("orders"),
		orderline: cat.Table("orderline"),
		stock:     cat.Table("stock"),
	}
	t.custIdx = index.BuildHash(t.customer.Access(customerSchema.Col("c_key")), t.customer.Rows(), par.Serial())
	t.distIdx = index.BuildHash(t.district.Access(districtSchema.Col("d_key")), t.district.Rows(), par.Serial())
	t.stockIdx = index.BuildHash(t.stock.Access(stockSchema.Col("s_key")), t.stock.Rows(), par.Serial())
	t.nextOID = make([]int, t.district.Rows())
	for i := range t.nextOID {
		t.nextOID[i] = d.Config.OrdersPerD
	}
	return t
}

// NewOrder runs one TPC-C-style NewOrder: reads district/customer/stock,
// decrements stock quantities, appends one order and its lines.
func (t *Tx) NewOrder() error {
	cfg := t.data.Config
	w := t.rng.Intn(cfg.Warehouses)
	di := t.rng.Intn(cfg.DistrictsPerW)
	c := t.rng.Intn(cfg.CustomersPerD)

	dRows := t.distIdx.Lookup(storage.EncodeInt(dKey(w, di)), nil)
	if len(dRows) != 1 {
		return fmt.Errorf("chbench: district (%d,%d) not found", w, di)
	}
	dRow := int(dRows[0])
	oid := t.nextOID[dRow]
	t.nextOID[dRow]++
	t.district.SetValue(dRow, districtSchema.Col("d_next_o_id"), storage.EncodeInt(int64(oid+1)))

	lines := t.rng.Intn(11) + 5
	entry := int64(20140000 + t.rng.Intn(365))
	orderRow := make([]storage.Word, ordersSchema.Width())
	orderRow[ordersSchema.Col("o_key")] = storage.EncodeInt(oKey(w, di, oid))
	orderRow[ordersSchema.Col("o_id")] = storage.EncodeInt(int64(oid))
	orderRow[ordersSchema.Col("o_d_id")] = storage.EncodeInt(int64(di))
	orderRow[ordersSchema.Col("o_w_id")] = storage.EncodeInt(int64(w))
	orderRow[ordersSchema.Col("o_c_key")] = storage.EncodeInt(cKey(w, di, c))
	orderRow[ordersSchema.Col("o_entry_d")] = storage.EncodeInt(entry)
	orderRow[ordersSchema.Col("o_carrier_id")] = storage.EncodeInt(0)
	orderRow[ordersSchema.Col("o_ol_cnt")] = storage.EncodeInt(int64(lines))
	orderRow[ordersSchema.Col("o_all_local")] = storage.EncodeInt(1)
	t.orders.AppendRows(orderRow)

	distInfo := t.orderline.Value(0, orderlineSchema.Col("ol_dist_info"))
	for l := 0; l < lines; l++ {
		item := t.rng.Intn(cfg.Items)
		qty := int64(t.rng.Intn(10) + 1)
		// Stock read-modify-write through the index.
		sRows := t.stockIdx.Lookup(storage.EncodeInt(sKey(w, item)), nil)
		if len(sRows) == 1 {
			sRow := int(sRows[0])
			col := stockSchema.Col("s_quantity")
			cur := storage.DecodeInt(t.stock.Value(sRow, col))
			next := cur - qty
			if next < 10 {
				next += 91
			}
			t.stock.SetValue(sRow, col, storage.EncodeInt(next))
		}
		lineRow := make([]storage.Word, orderlineSchema.Width())
		lineRow[orderlineSchema.Col("ol_o_key")] = storage.EncodeInt(oKey(w, di, oid))
		lineRow[orderlineSchema.Col("ol_number")] = storage.EncodeInt(int64(l + 1))
		lineRow[orderlineSchema.Col("ol_i_id")] = storage.EncodeInt(int64(item))
		lineRow[orderlineSchema.Col("ol_supply_w_id")] = storage.EncodeInt(int64(w))
		lineRow[orderlineSchema.Col("ol_delivery_d")] = storage.EncodeInt(entry + int64(t.rng.Intn(30)))
		lineRow[orderlineSchema.Col("ol_quantity")] = storage.EncodeInt(qty)
		lineRow[orderlineSchema.Col("ol_amount")] = storage.EncodeInt(t.rng.Int63n(100000) + 100)
		lineRow[orderlineSchema.Col("ol_dist_info")] = distInfo
		t.orderline.AppendRows(lineRow)
	}
	return nil
}

// Payment runs one TPC-C-style Payment: indexed customer lookup and
// balance/ytd/counter updates.
func (t *Tx) Payment() error {
	cfg := t.data.Config
	w := t.rng.Intn(cfg.Warehouses)
	di := t.rng.Intn(cfg.DistrictsPerW)
	c := t.rng.Intn(cfg.CustomersPerD)
	amount := t.rng.Int63n(500000) + 100

	rows := t.custIdx.Lookup(storage.EncodeInt(cKey(w, di, c)), nil)
	if len(rows) != 1 {
		return fmt.Errorf("chbench: customer (%d,%d,%d) not found", w, di, c)
	}
	row := int(rows[0])
	balCol := customerSchema.Col("c_balance")
	ytdCol := customerSchema.Col("c_ytd_payment")
	cntCol := customerSchema.Col("c_payment_cnt")
	t.customer.SetValue(row, balCol, storage.EncodeInt(storage.DecodeInt(t.customer.Value(row, balCol))-amount))
	t.customer.SetValue(row, ytdCol, storage.EncodeInt(storage.DecodeInt(t.customer.Value(row, ytdCol))+amount))
	t.customer.SetValue(row, cntCol, storage.EncodeInt(storage.DecodeInt(t.customer.Value(row, cntCol))+1))
	return nil
}

// Mix runs n transactions with the TPC-C-ish ratio (roughly one Payment
// per NewOrder).
func (t *Tx) Mix(n int) error {
	for i := 0; i < n; i++ {
		var err error
		if i%2 == 0 {
			err = t.NewOrder()
		} else {
			err = t.Payment()
		}
		if err != nil {
			return err
		}
	}
	return nil
}
