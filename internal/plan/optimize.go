package plan

import (
	"sync"

	"apollo/internal/exec"
	"apollo/internal/expr"
	"apollo/internal/stats"
	"apollo/internal/table"
)

// StatsCache memoizes per-table statistics. One cache can be shared across
// compilations (the SQL engine keeps one per database); entries refresh when
// the table's publish epoch moves (tuple-mover publishes, bulk loads,
// rebuilds) or the live row count drifts more than 10% from collection time.
type StatsCache struct {
	mu sync.Mutex
	m  map[*table.Table]*stats.TableStats
}

// NewStatsCache creates an empty statistics cache.
func NewStatsCache() *StatsCache { return &StatsCache{m: map[*table.Table]*stats.TableStats{}} }

// Stats returns current statistics for t, recollecting if the cached entry
// is stale.
func (c *StatsCache) Stats(t *table.Table) *stats.TableStats { return c.get(t) }

func (c *StatsCache) get(t *table.Table) *stats.TableStats {
	cur := t.Rows()
	version := t.StatsVersion()
	c.mu.Lock()
	if s, ok := c.m[t]; ok && s.Version == version {
		drift := s.Rows - cur
		if drift < 0 {
			drift = -drift
		}
		// Trickle inserts and deletes do not change a publish epoch; refresh
		// once the row count has drifted more than 10% anyway. Small tables
		// get no absolute-drift escape: a 50-row dimension that doubles must
		// recollect like anyone else.
		if drift*10 <= s.Rows {
			c.mu.Unlock()
			return s
		}
	}
	c.mu.Unlock()
	s := stats.Collect(t)
	mStatsCollections.Inc()
	c.mu.Lock()
	c.m[t] = s
	c.mu.Unlock()
	return s
}

// pushDownFilters moves filter conjuncts as close to the scans as possible:
// through projections of plain columns, into the probe/build children of
// inner joins, and into Scan.Filter itself.
func pushDownFilters(n Node) Node {
	switch x := n.(type) {
	case *Filter:
		in := pushDownFilters(x.In)
		remaining := pushConjuncts(in, expr.Conjuncts(x.Pred))
		if len(remaining) == 0 {
			return in
		}
		return &Filter{In: in, Pred: andAll(remaining)}
	case *Project:
		x.In = pushDownFilters(x.In)
		return x
	case *Join:
		x.Left = pushDownFilters(x.Left)
		x.Right = pushDownFilters(x.Right)
		// Join residual conjuncts referencing only one side push down (inner
		// joins only; outer-join residuals define match-ness, not filtering).
		if x.Type == exec.Inner && x.Residual != nil {
			lw := x.Left.Schema().Len()
			var keep []expr.Expr
			for _, c := range expr.Conjuncts(x.Residual) {
				refs := map[int]bool{}
				expr.ReferencedCols(c, refs)
				onlyLeft, onlyRight := true, true
				for r := range refs {
					if r < lw {
						onlyRight = false
					} else {
						onlyLeft = false
					}
				}
				switch {
				case onlyLeft && len(refs) > 0:
					if rem := pushConjuncts(x.Left, []expr.Expr{c}); len(rem) > 0 {
						x.Left = &Filter{In: x.Left, Pred: andAll(rem)}
					}
				case onlyRight && len(refs) > 0:
					m := map[int]int{}
					for r := range refs {
						m[r] = r - lw
					}
					rc := expr.Remap(c, m)
					if rem := pushConjuncts(x.Right, []expr.Expr{rc}); len(rem) > 0 {
						x.Right = &Filter{In: x.Right, Pred: andAll(rem)}
					}
				default:
					keep = append(keep, c)
				}
			}
			x.Residual = andAll(keep)
		}
		return x
	case *Agg:
		x.In = pushDownFilters(x.In)
		return x
	case *Sort:
		x.In = pushDownFilters(x.In)
		return x
	case *Limit:
		x.In = pushDownFilters(x.In)
		return x
	case *Union:
		for i := range x.Ins {
			x.Ins[i] = pushDownFilters(x.Ins[i])
		}
		return x
	default:
		return n
	}
}

// pushConjuncts tries to sink each conjunct into n (mutating scans/joins in
// place) and returns the conjuncts that could not be fully pushed.
func pushConjuncts(n Node, conjuncts []expr.Expr) []expr.Expr {
	var remaining []expr.Expr
	for _, c := range conjuncts {
		if !pushOne(n, c) {
			remaining = append(remaining, c)
		}
	}
	return remaining
}

// pushOne pushes a single conjunct into n if possible.
func pushOne(n Node, c expr.Expr) bool {
	switch x := n.(type) {
	case *Scan:
		// Scan filters are bound to the full table schema; conjuncts arriving
		// here are bound to the scan's output, which equals the table schema
		// before pruning (Cols == nil).
		if x.Cols != nil {
			return false
		}
		if x.Filter == nil {
			x.Filter = c
		} else {
			x.Filter = expr.NewAnd(x.Filter, c)
		}
		return true
	case *Filter:
		if pushOne(x.In, c) {
			return true
		}
		x.Pred = expr.NewAnd(x.Pred, c)
		return true
	case *Join:
		lw := x.Left.Schema().Len()
		refs := map[int]bool{}
		expr.ReferencedCols(c, refs)
		onlyLeft, onlyRight := true, true
		for r := range refs {
			if r < lw {
				onlyRight = false
			} else {
				onlyLeft = false
			}
		}
		// Probe-side (left) predicates are safe for inner/left-semi/anti and
		// left outer joins; build-side predicates only for inner joins.
		if onlyLeft && (x.Type == exec.Inner || x.Type == exec.LeftOuter || x.Type == exec.LeftSemi || x.Type == exec.LeftAnti) {
			if !pushOne(x.Left, c) {
				x.Left = &Filter{In: x.Left, Pred: c}
			}
			return true
		}
		if onlyRight && x.Type == exec.Inner {
			m := map[int]int{}
			for r := range refs {
				m[r] = r - lw
			}
			rc := expr.Remap(c, m)
			if !pushOne(x.Right, rc) {
				x.Right = &Filter{In: x.Right, Pred: rc}
			}
			return true
		}
		// Conjuncts spanning both sides of an inner join become residual (and
		// may later be promoted to equi-keys).
		if x.Type == exec.Inner && !onlyLeft && !onlyRight {
			if x.Residual == nil {
				x.Residual = c
			} else {
				x.Residual = expr.NewAnd(x.Residual, c)
			}
			return true
		}
		return false
	default:
		return false
	}
}

func andAll(conjuncts []expr.Expr) expr.Expr {
	switch len(conjuncts) {
	case 0:
		return nil
	case 1:
		return conjuncts[0]
	default:
		return expr.NewAnd(conjuncts...)
	}
}

// extractJoinKeys promotes residual conjuncts of the form leftCol = rightCol
// into equi-key lists.
func extractJoinKeys(n Node) Node {
	switch x := n.(type) {
	case *Join:
		x.Left = extractJoinKeys(x.Left)
		x.Right = extractJoinKeys(x.Right)
		if x.Residual == nil {
			return x
		}
		lw := x.Left.Schema().Len()
		var keep []expr.Expr
		for _, c := range expr.Conjuncts(x.Residual) {
			if lk, rk, ok := equiKey(c, lw); ok {
				x.LeftKeys = append(x.LeftKeys, lk)
				x.RightKeys = append(x.RightKeys, rk)
			} else {
				keep = append(keep, c)
			}
		}
		x.Residual = andAll(keep)
		return x
	default:
		mutateChildren(n, extractJoinKeys)
		return n
	}
}

// equiKey recognizes col = col conjuncts across the join boundary, returning
// key expressions bound to the left and right child schemas.
func equiKey(c expr.Expr, leftWidth int) (lk, rk expr.Expr, ok bool) {
	cmp, isCmp := c.(*expr.Cmp)
	if !isCmp || cmp.Op != expr.EQ {
		return nil, nil, false
	}
	l, lok := cmp.L.(*expr.ColRef)
	r, rok := cmp.R.(*expr.ColRef)
	if !lok || !rok {
		return nil, nil, false
	}
	switch {
	case l.Idx < leftWidth && r.Idx >= leftWidth:
		return l, expr.NewColRef(r.Idx-leftWidth, r.Name, r.Typ), true
	case r.Idx < leftWidth && l.Idx >= leftWidth:
		return r, expr.NewColRef(l.Idx-leftWidth, l.Name, l.Typ), true
	default:
		return nil, nil, false
	}
}

// mutateChildren rewrites each child of n through fn in place.
func mutateChildren(n Node, fn func(Node) Node) {
	switch x := n.(type) {
	case *Filter:
		x.In = fn(x.In)
	case *Project:
		x.In = fn(x.In)
	case *Agg:
		x.In = fn(x.In)
	case *Sort:
		x.In = fn(x.In)
	case *Limit:
		x.In = fn(x.In)
	case *Union:
		for i := range x.Ins {
			x.Ins[i] = fn(x.Ins[i])
		}
	case *Join:
		x.Left = fn(x.Left)
		x.Right = fn(x.Right)
	}
}

// chooseBuildSides swaps join inputs so the smaller side becomes the build
// (right) input, preserving output column order with a compensating Project.
// Joins the cost-based enumerator already oriented (Placed) are left alone.
func chooseBuildSides(n Node, sc *StatsCache) Node {
	mutateChildren(n, func(c Node) Node { return chooseBuildSides(c, sc) })
	x, ok := n.(*Join)
	if !ok {
		return n
	}
	if x.Placed {
		return n // enumerator chose this orientation by cost
	}
	if x.Type == exec.LeftSemi || x.Type == exec.LeftAnti {
		return n // probe side is fixed by semantics
	}
	l := estimateRows(x.Left, sc)
	r := estimateRows(x.Right, sc)
	if l >= r {
		return n // right (build) already the smaller side
	}
	// Swap children and mirror the join type.
	swapped := &Join{
		Left: x.Right, Right: x.Left,
		LeftKeys: x.RightKeys, RightKeys: x.LeftKeys,
	}
	switch x.Type {
	case exec.Inner:
		swapped.Type = exec.Inner
	case exec.LeftOuter:
		swapped.Type = exec.RightOuter
	case exec.RightOuter:
		swapped.Type = exec.LeftOuter
	case exec.FullOuter:
		swapped.Type = exec.FullOuter
	default:
		return n
	}
	lw := x.Left.Schema().Len()
	rw := x.Right.Schema().Len()
	if x.Residual != nil {
		m := map[int]int{}
		for i := 0; i < lw; i++ {
			m[i] = rw + i
		}
		for i := 0; i < rw; i++ {
			m[lw+i] = i
		}
		swapped.Residual = expr.Remap(x.Residual, m)
	}
	// Restore the original left++right output order.
	outSchema := x.Schema()
	exprs := make([]expr.Expr, outSchema.Len())
	names := make([]string, outSchema.Len())
	for i := 0; i < lw; i++ {
		exprs[i] = expr.NewColRef(rw+i, outSchema.Cols[i].Name, outSchema.Cols[i].Typ)
		names[i] = outSchema.Cols[i].Name
	}
	for i := 0; i < rw; i++ {
		exprs[lw+i] = expr.NewColRef(i, outSchema.Cols[lw+i].Name, outSchema.Cols[lw+i].Typ)
		names[lw+i] = outSchema.Cols[lw+i].Name
	}
	return &Project{In: swapped, Exprs: exprs, Names: names}
}

// batchSupported reports whether a plan runs in batch mode under mode: the
// one batch/row rule of both batch modes. No batch mode joins without an
// equality key (the batch join is a hash join), so such a plan runs in row
// mode. Mode2012 also keeps to the 2012 batch-mode repertoire: inner joins
// only, no UNION ALL, no scalar or DISTINCT aggregation. Queries outside it
// fell back to row mode, the regression the paper's enhancements eliminate.
func batchSupported(n Node, mode Mode) bool {
	switch x := n.(type) {
	case *Join:
		if len(x.LeftKeys) == 0 || mode == Mode2012 && x.Type != exec.Inner {
			return false
		}
	case *Union:
		if mode == Mode2012 {
			return false
		}
	case *Agg:
		if mode == Mode2012 && len(x.GroupBy) == 0 {
			return false
		}
		for _, a := range x.Aggs {
			if mode == Mode2012 && a.Distinct {
				return false
			}
		}
	}
	for _, c := range children(n) {
		if !batchSupported(c, mode) {
			return false
		}
	}
	return true
}
