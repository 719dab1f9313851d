// Package catalog tracks the tables of a database instance.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"apollo/internal/sqltypes"
	"apollo/internal/storage"
	"apollo/internal/table"
	"apollo/internal/wal"
)

// Catalog maps table names to clustered columnstore tables. It is safe for
// concurrent use.
type Catalog struct {
	store *storage.Store

	mu      sync.RWMutex
	tables  map[string]*table.Table
	wal     *wal.Writer
	onTable func(*table.Table) // see OnTable
}

// New creates an empty catalog backed by the given blob store.
func New(store *storage.Store) *Catalog {
	return &Catalog{store: store, tables: make(map[string]*table.Table)}
}

// SetWAL attaches a write-ahead log: DDL is logged, and every table created
// afterwards logs its DML. Attach before any DDL (normally right after New
// or recovery).
func (c *Catalog) SetWAL(w *wal.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wal = w
}

// OnTable runs fn, with the catalog locked (fn must not call back into it),
// for every current table and every table created or installed afterwards.
// The DB attaches its transaction clock and background jobs with it.
func (c *Catalog) OnTable(fn func(*table.Table)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onTable = fn
	for _, t := range c.tables {
		fn(t)
	}
}

// Store returns the catalog's blob store.
func (c *Catalog) Store() *storage.Store { return c.store }

// Create adds a new table. Table names are case-sensitive; the SQL layer
// lower-cases identifiers before they reach the catalog.
func (c *Catalog) Create(name string, schema *sqltypes.Schema, opts table.Options) (*table.Table, error) {
	if schema.Len() == 0 {
		return nil, fmt.Errorf("catalog: table %s has no columns", name)
	}
	seen := map[string]bool{}
	for _, col := range schema.Cols {
		if seen[col.Name] {
			return nil, fmt.Errorf("catalog: duplicate column %s in table %s", col.Name, name)
		}
		seen[col.Name] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %s already exists", name)
	}
	if c.wal != nil {
		rec := &wal.Record{Type: wal.TCreateTable, Table: name, Payload: table.EncodeTableDef(schema, opts)}
		if err := c.wal.Append(rec); err != nil {
			return nil, err
		}
	}
	t := table.New(c.store, name, schema, opts)
	c.addLocked(t)
	return t, nil
}

// Install registers a table without logging — the recovery path, where the
// table was reconstructed from a checkpoint image or a replayed create
// record. The WAL is attached so post-recovery DML logs normally.
func (c *Catalog) Install(t *table.Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[t.Name]; ok {
		return fmt.Errorf("catalog: table %s already exists", t.Name)
	}
	c.addLocked(t)
	return nil
}

// addLocked attaches the WAL and the OnTable hook to t and registers it.
func (c *Catalog) addLocked(t *table.Table) {
	t.SetWAL(c.wal)
	if c.onTable != nil {
		c.onTable(t)
	}
	c.tables[t.Name] = t
}

// Get returns the named table, or an error.
func (c *Catalog) Get(name string) (*table.Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %s does not exist", name)
	}
	return t, nil
}

// Drop removes a table and its tuple-mover job.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	t, ok := c.tables[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	if c.wal != nil {
		if err := c.wal.Append(&wal.Record{Type: wal.TDropTable, Table: name}); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	delete(c.tables, name)
	c.mu.Unlock()
	t.Mover().Remove()
	return nil
}

// List returns table names in sorted order.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
