package main

import (
	"fmt"
	"strings"
	"time"

	"apollo"
	"apollo/internal/workload"
)

type ssbTable struct {
	name   string
	schema *apollo.Schema
	rows   []apollo.Row
}

// ssbTables lists the star schema fact table first.
func ssbTables(d *workload.SSBData) []ssbTable {
	return []ssbTable{
		{"lineorder", workload.LineorderSchema, d.Lineorder},
		{"dwdate", workload.DateSchema, d.Date},
		{"customer", workload.CustomerSchema, d.Customer},
		{"supplier", workload.SupplierSchema, d.Supplier},
		{"part", workload.PartSchema, d.Part},
	}
}

func loadSSB(db *apollo.DB, d *workload.SSBData) error {
	for _, t := range ssbTables(d) {
		tbl, err := db.CreateTable(t.name, t.schema)
		if err != nil {
			return err
		}
		if err := tbl.BulkLoad(t.rows); err != nil {
			return fmt.Errorf("load %s: %w", t.name, err)
		}
	}
	return nil
}

func ssbStatements() []string {
	var out []string
	for _, q := range workload.SSBQueries() {
		out = append(out, q.SQL)
	}
	return out
}

// lineorderInsert renders an INSERT of rows shaped like lineorder into the
// table. The caller picks the order date: rows dated outside the date
// dimension join to nothing, so no SSB query's answer sees them.
func lineorderInsert(table string, firstKey int64, n int, orderDate string, pick func(n int) int64) (stmt string, rawBytes int) {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		price := 90000 + pick(1000000)
		discount := pick(11)
		fmt.Fprintf(&b, "(%d, %d, %d, %d, DATE '%s', %d, %d, %d, %d, %d)",
			firstKey+int64(i), 1+pick(50), 1+pick(40), 1+pick(10), orderDate,
			1+pick(50), price, discount, price*(100-discount)/100, price*6/10)
	}
	return b.String(), n * 8 * len(workload.LineorderSchema.Cols)
}

// oracle holds the reference answers: the statements run once in row mode
// (the paper's baseline executor, which shares no operator with batch mode)
// over the same generated data.
type oracle struct {
	answers   []answer
	rowModeMs []float64 // each statement's row-mode latency, for batch_over_row_x
	// lineorderDiskBytes is the fact table's at-rest size, from which
	// wire_mixed sizes its cache.
	lineorderDiskBytes int64
}

func buildOracle(seed int64, d *workload.SSBData, stmts []string) (*oracle, error) {
	cfg := engineConfig(seed)
	cfg.Mode = apollo.ModeRow
	cfg.TupleMoverInterval = 0
	db := apollo.Open(cfg)
	defer db.Close()
	if err := loadSSB(db, d); err != nil {
		return nil, err
	}
	o := &oracle{}
	for _, q := range stmts {
		t0 := time.Now()
		res, err := db.Query(q)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		o.rowModeMs = append(o.rowModeMs, float64(time.Since(t0))/1e6)
		o.answers = append(o.answers, answerOf(res.Rows))
	}
	lo, err := db.Table("lineorder")
	if err != nil {
		return nil, err
	}
	o.lineorderDiskBytes = int64(lo.Stats().DiskBytes)
	return o, nil
}

func (o *oracle) check(i int, got answer) error {
	if got != o.answers[i] {
		return fmt.Errorf("statement %d: answer %d rows/%016x, row-mode oracle %d rows/%016x",
			i, got.rows, got.sum, o.answers[i].rows, o.answers[i].sum)
	}
	return nil
}
