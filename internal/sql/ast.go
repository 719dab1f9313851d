package sql

import (
	"apollo/internal/exec"
	"apollo/internal/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTable is CREATE TABLE name (cols...) [WITH (options)].
type CreateTable struct {
	Name string
	Cols []sqltypes.Column
	// Options from the WITH clause.
	RowGroupSize  int  // ROWGROUP_SIZE = n
	BulkThreshold int  // BULK_THRESHOLD = n
	Archive       bool // ARCHIVE
	NoReorder     bool // NOREORDER
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

// Insert is INSERT INTO name VALUES (...), (...).
type Insert struct {
	Table string
	Rows  [][]Expr // literal expressions per row
}

// Delete is DELETE FROM name [WHERE pred].
type Delete struct {
	Table string
	Where Expr
}

// Update is UPDATE name SET col = expr, ... [WHERE pred].
type Update struct {
	Table string
	Cols  []string
	Exprs []Expr
	Where Expr
}

// Reorganize is REORGANIZE name: force-close the open delta store and run
// the tuple mover to completion (ALTER INDEX ... REORGANIZE in the paper).
type Reorganize struct{ Table string }

// Rebuild is REBUILD name: recompress the table, physically removing deleted
// rows and folding delta rows into row groups (ALTER INDEX ... REBUILD).
type Rebuild struct{ Table string }

// ShowStats is SHOW STATS [FOR] name: report the optimizer's statistics
// snapshot for one table (one row per column), refreshing it first if stale.
type ShowStats struct{ Table string }

// Copy is COPY table FROM 'path' [WITH (options)]: the bulk-load statement.
// Batches at or above the table's bulk threshold compress directly into row
// groups; smaller remainders fall back to batched delta inserts. Options:
// format ('csv' default, or 'binary'), header, delimiter ','), batch_rows=N
// (the batch size; default the table's row-group size), max_dead_letters=N.
type Copy struct {
	Table          string
	Path           string
	Format         string
	Header         bool
	Delim          rune
	BatchRows      int
	MaxDeadLetters int // 0 = loader default, <0 = none tolerated
}

// Begin is BEGIN [TRANSACTION]: start a snapshot-isolation transaction.
type Begin struct{}

// Commit is COMMIT [TRANSACTION].
type Commit struct{}

// Rollback is ROLLBACK [TRANSACTION].
type Rollback struct{}

// Explain wraps a SELECT. With Analyze set (EXPLAIN ANALYZE) the query is
// executed and the rendered tree carries per-operator execution counters.
type Explain struct {
	Query   *Select
	Analyze bool
}

// Select is a SELECT statement (possibly a UNION ALL chain).
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem // joined left-deep in order
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 = none
	Offset   int
	// UnionAll chains additional SELECTs with identical shapes.
	UnionAll []*Select
}

// SelectItem is one output expression (or * when Star).
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// FromItem is a table reference with an optional join clause. The first item
// has JoinKind Inner and On nil (it seeds the tree).
type FromItem struct {
	Table    string
	Alias    string
	JoinKind exec.JoinType
	On       Expr // nil for comma joins (predicate lives in WHERE)
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (*CreateTable) stmt() {}
func (*DropTable) stmt()   {}
func (*Insert) stmt()      {}
func (*Delete) stmt()      {}
func (*Update) stmt()      {}
func (*Reorganize) stmt()  {}
func (*Rebuild) stmt()     {}
func (*ShowStats) stmt()   {}
func (*Copy) stmt()        {}
func (*Explain) stmt()     {}
func (*Select) stmt()      {}
func (*Begin) stmt()       {}
func (*Commit) stmt()      {}
func (*Rollback) stmt()    {}

// Expr is a parsed (unbound) expression.
type Expr interface{ expr() }

// Lit is a literal value.
type Lit struct{ Val sqltypes.Value }

// Param is a `?` prepared-statement placeholder. Idx is its 1-based position
// in statement order.
type Param struct{ Idx int }

// Col is a column reference, optionally qualified.
type Col struct{ Qual, Name string }

// Bin is a binary operation: comparison, logic, or arithmetic.
type Bin struct {
	Op   string // "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "+", "-", "*", "/", "%"
	L, R Expr
}

// Unary is NOT or numeric negation.
type Unary struct {
	Op string // "NOT", "-"
	E  Expr
}

// IsNullX is expr IS [NOT] NULL.
type IsNullX struct {
	E      Expr
	Negate bool
}

// InX is expr [NOT] IN (literals...).
type InX struct {
	E      Expr
	Vals   []Expr
	Negate bool
}

// LikeX is expr [NOT] LIKE 'pattern'.
type LikeX struct {
	E       Expr
	Pattern string
	Negate  bool
}

// BetweenX is expr [NOT] BETWEEN lo AND hi.
type BetweenX struct {
	E, Lo, Hi Expr
	Negate    bool
}

// Call is a function call: aggregates (COUNT/SUM/AVG/MIN/MAX, with optional
// DISTINCT and COUNT(*)) and date parts (YEAR/MONTH/DAY).
type Call struct {
	Name     string // upper case
	Star     bool   // COUNT(*)
	Distinct bool
	Arg      Expr
}

func (*Lit) expr()      {}
func (*Param) expr()    {}
func (*Col) expr()      {}
func (*Bin) expr()      {}
func (*Unary) expr()    {}
func (*IsNullX) expr()  {}
func (*InX) expr()      {}
func (*LikeX) expr()    {}
func (*BetweenX) expr() {}
func (*Call) expr()     {}
