// Package workload generates the experiment inputs: a scaled-down Star
// Schema Benchmark (SSB) warehouse with its 13-query flight suite — the kind
// of star-join workload the paper's data-warehouse evaluation targets — and
// synthetic datasets spanning the data characteristics that drive the
// compression-ratio experiments.
package workload

import (
	"context"
	"fmt"
	"math/rand"

	"apollo/internal/catalog"
	"apollo/internal/sqltypes"
	"apollo/internal/table"
)

// SSBData holds generated star-schema tables.
type SSBData struct {
	Lineorder, Date, Customer, Supplier, Part []sqltypes.Row
}

// Schemas for the SSB tables.
var (
	LineorderSchema = sqltypes.NewSchema(
		sqltypes.Column{Name: "lo_orderkey", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "lo_custkey", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "lo_partkey", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "lo_suppkey", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "lo_orderdate", Typ: sqltypes.Date},
		sqltypes.Column{Name: "lo_quantity", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "lo_extendedprice", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "lo_discount", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "lo_revenue", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "lo_supplycost", Typ: sqltypes.Int64},
	)
	DateSchema = sqltypes.NewSchema(
		sqltypes.Column{Name: "d_datekey", Typ: sqltypes.Date},
		sqltypes.Column{Name: "d_year", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "d_month", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "d_yearmonthnum", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "d_weeknuminyear", Typ: sqltypes.Int64},
	)
	CustomerSchema = sqltypes.NewSchema(
		sqltypes.Column{Name: "c_custkey", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "c_name", Typ: sqltypes.String},
		sqltypes.Column{Name: "c_city", Typ: sqltypes.String},
		sqltypes.Column{Name: "c_nation", Typ: sqltypes.String},
		sqltypes.Column{Name: "c_region", Typ: sqltypes.String},
	)
	SupplierSchema = sqltypes.NewSchema(
		sqltypes.Column{Name: "s_suppkey", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "s_name", Typ: sqltypes.String},
		sqltypes.Column{Name: "s_city", Typ: sqltypes.String},
		sqltypes.Column{Name: "s_nation", Typ: sqltypes.String},
		sqltypes.Column{Name: "s_region", Typ: sqltypes.String},
	)
	PartSchema = sqltypes.NewSchema(
		sqltypes.Column{Name: "p_partkey", Typ: sqltypes.Int64},
		sqltypes.Column{Name: "p_mfgr", Typ: sqltypes.String},
		sqltypes.Column{Name: "p_category", Typ: sqltypes.String},
		sqltypes.Column{Name: "p_brand", Typ: sqltypes.String},
		sqltypes.Column{Name: "p_color", Typ: sqltypes.String},
	)
)

var (
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "CHINA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "ROMANIA", "RUSSIA",
		"SAUDI ARABIA", "UNITED KINGDOM", "UNITED STATES", "VIETNAM",
	}
	colors = []string{"red", "green", "blue", "yellow", "purple", "orange",
		"white", "black", "pink", "cyan", "magenta", "lime"}
)

// Counts per scale factor. A scale factor of 1.0 is deliberately ~100x
// smaller than real SSB so the full suite runs in seconds on a laptop; the
// fact:dimension ratios match the original.
func ssbCounts(sf float64) (lo, cust, supp, part int) {
	lo = int(60000 * sf)
	cust = max(int(600*sf), 50)
	supp = max(int(40*sf), 10)
	part = max(int(400*sf), 40)
	return
}

// epoch days for 1992-01-01 and number of days through 1998-12-31 (the SSB
// date range).
const (
	ssbDateBase = 8035 // 1992-01-01
	ssbDateSpan = 7 * 365
)

// GenSSB generates a deterministic SSB dataset at the given scale factor.
func GenSSB(sf float64, seed int64) *SSBData {
	rng := rand.New(rand.NewSource(seed))
	nLo, nCust, nSupp, nPart := ssbCounts(sf)
	d := &SSBData{}

	// Date dimension: one row per day of the 7-year range.
	for day := 0; day < ssbDateSpan; day++ {
		key := int64(ssbDateBase + day)
		y := 1992 + day/365
		doy := day % 365
		month := int64(doy/31 + 1)
		if month > 12 {
			month = 12
		}
		d.Date = append(d.Date, sqltypes.Row{
			sqltypes.NewDate(key),
			sqltypes.NewInt(int64(y)),
			sqltypes.NewInt(month),
			sqltypes.NewInt(int64(y)*100 + month),
			sqltypes.NewInt(int64(doy/7 + 1)),
		})
	}

	for i := 0; i < nCust; i++ {
		nation := nations[rng.Intn(len(nations))]
		d.Customer = append(d.Customer, sqltypes.Row{
			sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewString(fmt.Sprintf("Customer#%06d", i+1)),
			sqltypes.NewString(fmt.Sprintf("%s%d", nation[:min(9, len(nation))], rng.Intn(10))),
			sqltypes.NewString(nation),
			sqltypes.NewString(regionOf(nation)),
		})
	}
	for i := 0; i < nSupp; i++ {
		nation := nations[rng.Intn(len(nations))]
		d.Supplier = append(d.Supplier, sqltypes.Row{
			sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewString(fmt.Sprintf("Supplier#%06d", i+1)),
			sqltypes.NewString(fmt.Sprintf("%s%d", nation[:min(9, len(nation))], rng.Intn(10))),
			sqltypes.NewString(nation),
			sqltypes.NewString(regionOf(nation)),
		})
	}
	for i := 0; i < nPart; i++ {
		mfgr := fmt.Sprintf("MFGR#%d", 1+rng.Intn(5))
		cat := fmt.Sprintf("%s%d", mfgr, 1+rng.Intn(5))
		d.Part = append(d.Part, sqltypes.Row{
			sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewString(mfgr),
			sqltypes.NewString(cat),
			sqltypes.NewString(fmt.Sprintf("%s%d", cat, 1+rng.Intn(40))),
			sqltypes.NewString(colors[rng.Intn(len(colors))]),
		})
	}

	for i := 0; i < nLo; i++ {
		qty := int64(1 + rng.Intn(50))
		price := int64(90000 + rng.Intn(1000000))
		discount := int64(rng.Intn(11))
		revenue := price * (100 - discount) / 100
		d.Lineorder = append(d.Lineorder, sqltypes.Row{
			sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewInt(int64(1 + rng.Intn(nCust))),
			sqltypes.NewInt(int64(1 + rng.Intn(nPart))),
			sqltypes.NewInt(int64(1 + rng.Intn(nSupp))),
			sqltypes.NewDate(int64(ssbDateBase + rng.Intn(ssbDateSpan))),
			sqltypes.NewInt(qty),
			sqltypes.NewInt(price),
			sqltypes.NewInt(discount),
			sqltypes.NewInt(revenue),
			sqltypes.NewInt(price * 6 / 10),
		})
	}
	return d
}

// regionOf maps a nation to its region deterministically.
func regionOf(nation string) string {
	var h uint32
	for _, c := range nation {
		h = h*31 + uint32(c)
	}
	return regions[int(h)%len(regions)]
}

// LoadSSB creates and bulk-loads the SSB tables into a catalog.
func LoadSSB(cat *catalog.Catalog, d *SSBData, opts table.Options) error {
	load := []struct {
		name   string
		schema *sqltypes.Schema
		rows   []sqltypes.Row
	}{
		{"lineorder", LineorderSchema, d.Lineorder},
		{"dwdate", DateSchema, d.Date},
		{"customer", CustomerSchema, d.Customer},
		{"supplier", SupplierSchema, d.Supplier},
		{"part", PartSchema, d.Part},
	}
	for _, l := range load {
		t, err := cat.Create(l.name, l.schema, opts)
		if err != nil {
			return err
		}
		if _, err := t.BulkLoad(context.Background(), l.rows); err != nil {
			return err
		}
	}
	return nil
}

// Query is a named SQL query.
type Query struct {
	Name string
	SQL  string
}

// SSBQueries returns the 13-query SSB flight suite adapted to the engine's
// dialect. Flights: Q1 restricts only the date dimension (scan-dominated),
// Q2 joins part+supplier, Q3 joins customer+supplier+date, Q4 joins all four
// dimensions — progressively heavier star joins.
func SSBQueries() []Query {
	return []Query{
		{"Q1.1", `SELECT SUM(lo_extendedprice * lo_discount) AS revenue
			FROM lineorder, dwdate
			WHERE lo_orderdate = d_datekey AND d_year = 1993
			  AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25`},
		{"Q1.2", `SELECT SUM(lo_extendedprice * lo_discount) AS revenue
			FROM lineorder, dwdate
			WHERE lo_orderdate = d_datekey AND d_yearmonthnum = 199401
			  AND lo_discount BETWEEN 4 AND 6 AND lo_quantity BETWEEN 26 AND 35`},
		{"Q1.3", `SELECT SUM(lo_extendedprice * lo_discount) AS revenue
			FROM lineorder, dwdate
			WHERE lo_orderdate = d_datekey AND d_weeknuminyear = 6 AND d_year = 1994
			  AND lo_discount BETWEEN 5 AND 7 AND lo_quantity BETWEEN 26 AND 35`},
		{"Q2.1", `SELECT SUM(lo_revenue) AS rev, d_year, p_brand
			FROM lineorder, dwdate, part, supplier
			WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
			  AND p_category = 'MFGR#12' AND s_region = 'AMERICA'
			GROUP BY d_year, p_brand ORDER BY d_year, p_brand`},
		{"Q2.2", `SELECT SUM(lo_revenue) AS rev, d_year, p_brand
			FROM lineorder, dwdate, part, supplier
			WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
			  AND p_brand BETWEEN 'MFGR#22' AND 'MFGR#228' AND s_region = 'ASIA'
			GROUP BY d_year, p_brand ORDER BY d_year, p_brand`},
		{"Q2.3", `SELECT SUM(lo_revenue) AS rev, d_year, p_brand
			FROM lineorder, dwdate, part, supplier
			WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
			  AND p_brand = 'MFGR#2221' AND s_region = 'EUROPE'
			GROUP BY d_year, p_brand ORDER BY d_year, p_brand`},
		{"Q3.1", `SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS rev
			FROM lineorder, customer, supplier, dwdate
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
			  AND c_region = 'ASIA' AND s_region = 'ASIA'
			  AND d_year >= 1992 AND d_year <= 1997
			GROUP BY c_nation, s_nation, d_year ORDER BY d_year, rev DESC, c_nation, s_nation`},
		{"Q3.2", `SELECT c_city, s_city, d_year, SUM(lo_revenue) AS rev
			FROM lineorder, customer, supplier, dwdate
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
			  AND c_nation = 'UNITED STATES' AND s_nation = 'UNITED STATES'
			  AND d_year >= 1992 AND d_year <= 1997
			GROUP BY c_city, s_city, d_year ORDER BY d_year, rev DESC, c_city, s_city`},
		{"Q3.3", `SELECT c_city, s_city, d_year, SUM(lo_revenue) AS rev
			FROM lineorder, customer, supplier, dwdate
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
			  AND c_nation = 'UNITED KINGDOM' AND s_nation = 'UNITED KINGDOM'
			  AND d_year >= 1992 AND d_year <= 1997
			GROUP BY c_city, s_city, d_year ORDER BY d_year, rev DESC, c_city, s_city`},
		{"Q3.4", `SELECT c_city, s_city, d_year, SUM(lo_revenue) AS rev
			FROM lineorder, customer, supplier, dwdate
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
			  AND c_nation = 'CHINA' AND s_nation = 'CHINA' AND d_yearmonthnum = 199712
			GROUP BY c_city, s_city, d_year ORDER BY d_year, rev DESC, c_city, s_city`},
		{"Q4.1", `SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit
			FROM lineorder, dwdate, customer, supplier, part
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
			  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
			  AND c_region = 'AMERICA' AND s_region = 'AMERICA'
			  AND p_mfgr IN ('MFGR#1', 'MFGR#2')
			GROUP BY d_year, c_nation ORDER BY d_year, c_nation`},
		{"Q4.2", `SELECT d_year, s_nation, p_category, SUM(lo_revenue - lo_supplycost) AS profit
			FROM lineorder, dwdate, customer, supplier, part
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
			  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
			  AND c_region = 'AMERICA' AND s_region = 'AMERICA'
			  AND d_year IN (1997, 1998) AND p_mfgr IN ('MFGR#1', 'MFGR#2')
			GROUP BY d_year, s_nation, p_category ORDER BY d_year, s_nation, p_category`},
		{"Q4.3", `SELECT d_year, s_city, p_brand, SUM(lo_revenue - lo_supplycost) AS profit
			FROM lineorder, dwdate, customer, supplier, part
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
			  AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
			  AND s_nation = 'UNITED STATES' AND d_year IN (1997, 1998)
			  AND p_category = 'MFGR#14'
			GROUP BY d_year, s_city, p_brand ORDER BY d_year, s_city, p_brand`},
	}
}

// RepertoireQueries exercise the operators the paper says were added to
// batch mode in the upcoming release — outer join, semi join (EXISTS-style),
// anti join (NOT EXISTS-style), UNION ALL, distinct aggregation, and scalar
// aggregation — the shapes that forced 2012 plans back to row mode.
func RepertoireQueries() []Query {
	return []Query{
		{"OuterJoin", `SELECT c_nation, COUNT(*) AS n
			FROM customer LEFT OUTER JOIN lineorder ON c_custkey = lo_custkey AND lo_quantity > 49
			GROUP BY c_nation ORDER BY c_nation`},
		{"SemiJoin", `SELECT COUNT(*) FROM customer LEFT SEMI JOIN lineorder ON c_custkey = lo_custkey`},
		{"AntiJoin", `SELECT COUNT(*) FROM part LEFT ANTI JOIN lineorder ON p_partkey = lo_partkey`},
		{"UnionAll", `SELECT lo_orderkey FROM lineorder WHERE lo_discount = 10
			UNION ALL SELECT lo_orderkey FROM lineorder WHERE lo_quantity = 1`},
		{"DistinctAgg", `SELECT d_year, COUNT(DISTINCT lo_custkey) AS custs
			FROM lineorder, dwdate WHERE lo_orderdate = d_datekey
			GROUP BY d_year ORDER BY d_year`},
		{"ScalarAgg", `SELECT COUNT(*), SUM(lo_revenue), AVG(lo_quantity) FROM lineorder WHERE lo_discount >= 5`},
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
