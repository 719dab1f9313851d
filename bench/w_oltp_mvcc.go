package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"apollo"
)

// oltpMVCC is the short-statement workload: an embedded durable database
// (fsync on every commit) and two closed-loop sessions. A write operation is
// one transaction — BEGIN; INSERT two rows into the shared ev table; UPDATE
// the session's own row of acct; COMMIT — and after every readEvery-th the
// session reads a grouped SUM over the whole, growing ev table. sql
// parse/bind, txn, wal (fsync, group commit) and delta/table (the tuple mover
// compresses a delta store every 32k rows) dominate; scan kernels do little.
type oltpMVCC struct {
	dir      string
	db       *apollo.DB
	sessions []*oltpSession
	preload  loadStats

	preloadRows, preloadSum int64
}

type oltpSession struct {
	id     int64 // 1-based; also the key of the session's acct row
	s      *apollo.Session
	rng    *rand.Rand
	n      int64 // operations begun
	rows   int64 // ev rows of acknowledged commits
	sum    int64 // their amounts, which is also the acct balance
	failed int64 // commits whose outcome is unknown
}

const (
	oltpSessions    = 2
	oltpPreloadRows = 100000
	oltpReadEvery   = 32
	oltpWarmOps     = 64
	oltpRead        = "SELECT sess, COUNT(*), SUM(amt) FROM ev GROUP BY sess"
	oltpRowBytes    = 3 * 8 // three BIGINT columns
)

func (w *oltpMVCC) prepare(*runState) error { return nil }

func (w *oltpMVCC) setup(r *runState) error {
	var err error
	if w.dir, err = r.freshDir("oltp"); err != nil {
		return err
	}
	if w.db, err = apollo.OpenDir(w.dir, engineConfig(r.p.seed)); err != nil {
		return err
	}
	for _, ddl := range []string{
		"CREATE TABLE acct (id BIGINT, bal BIGINT)",
		"CREATE TABLE ev (id BIGINT, sess BIGINT, amt BIGINT)",
	} {
		if _, err := w.db.Exec(ddl); err != nil {
			return err
		}
	}
	// History that is already compressed when the clients start: rows of
	// "session 0", loaded through the bulk path.
	rng := rand.New(rand.NewSource(r.p.seed))
	n := r.p.scaled(oltpPreloadRows, 1000)
	var csv bytes.Buffer
	w.preloadRows, w.preloadSum = int64(n), 0
	for i := 0; i < n; i++ {
		amt := int64(1 + rng.Intn(100))
		w.preloadSum += amt
		csv.WriteString(strconv.Itoa(i))
		csv.WriteString(",0,")
		csv.WriteString(strconv.FormatInt(amt, 10))
		csv.WriteByte('\n')
	}
	t0 := time.Now()
	// Batch size pinned, so that the history has the same row groups on every
	// run (the loader's own controller sizes batches by measured speed).
	res, err := w.db.Load(context.Background(), apollo.LoadOptions{Table: "ev", Reader: &csv, BatchRows: rowGroupSize})
	if err != nil {
		return fmt.Errorf("preload ev: %w", err)
	}
	w.preload = loadStats{}
	w.preload.add(res.RowsLoaded, res.RowsDirect, res.Groups, len(res.DeadLetters), res.FinalTarget, time.Since(t0).Seconds())

	w.sessions = nil
	for i := int64(1); i <= oltpSessions; i++ {
		if _, err := w.db.Exec(fmt.Sprintf("INSERT INTO acct VALUES (%d, 0)", i)); err != nil {
			return err
		}
		w.sessions = append(w.sessions, &oltpSession{id: i, s: w.db.Session(),
			rng: rand.New(rand.NewSource(r.p.seed*1000 + i))})
	}
	r.describe(oltpSessions, true, apollo.DefaultConfig().BufferPoolBytes)
	for _, s := range w.sessions { // warm, one session after the other
		for i := 0; i < oltpWarmOps; i++ {
			if err := w.step(r, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// step is one write operation and, every readEvery-th time, one read.
func (w *oltpMVCC) step(r *runState, c *oltpSession) error {
	c.n++
	a1, a2 := int64(1+c.rng.Intn(100)), int64(1+c.rng.Intn(100))
	id := c.id*1_000_000_000 + 2*c.n
	insert := fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %d), (%d, %d, %d)", id, c.id, a1, id+1, c.id, a2)
	update := fmt.Sprintf("UPDATE acct SET bal = bal + %d WHERE id = %d", a1+a2, c.id)
	exec := func(op spanID, span, stmt string) error {
		return r.call(op, span, func() error { _, err := c.s.Exec(stmt); return err })
	}
	err := r.op("write", 0, func(op spanID) error {
		r.sent(4)
		if err := exec(op, "session.Exec", "BEGIN"); err != nil {
			return err
		}
		for _, stmt := range []string{insert, update} {
			if err := exec(op, "session.Exec", stmt); err != nil {
				c.s.Exec("ROLLBACK") //nolint:errcheck // best effort; the operation already failed
				return err
			}
		}
		// The commit span is the durable-commit wait: WAL append, group
		// commit, fsync.
		if err := exec(op, "commit", "COMMIT"); err != nil {
			c.failed++
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.rows += 2
	c.sum += a1 + a2
	r.wrote(2, 2*oltpRowBytes)
	if c.n%oltpReadEvery != 0 {
		return nil
	}
	// Only this session writes rows of its group, and all its commits are
	// acknowledged, so its group must read exactly what it has committed.
	return r.op("read", 0, func(op spanID) error {
		var res *apollo.Result
		r.sent(1)
		if err := r.call(op, "session.Exec", func() (err error) { res, err = c.s.Exec(oltpRead); return }); err != nil {
			return err
		}
		for _, row := range res.Rows {
			if row[0].I == c.id {
				if row[1].I != c.rows || row[2].I != c.sum {
					return fmt.Errorf("session %d read %d rows/sum %d of its own, committed %d/%d",
						c.id, row[1].I, row[2].I, c.rows, c.sum)
				}
				return nil
			}
		}
		return fmt.Errorf("session %d: its group is missing from the read", c.id)
	})
}

func (w *oltpMVCC) drive(r *runState) {
	var wg sync.WaitGroup
	for _, c := range w.sessions {
		wg.Add(1)
		go func(c *oltpSession) {
			defer wg.Done()
			for !r.done() {
				w.step(r, c) //nolint:errcheck // failures are counted by op
			}
		}(c)
	}
	wg.Wait()
}

func (w *oltpMVCC) finish(r *runState) error {
	for _, c := range w.sessions {
		c.s.Close()
	}
	w.db.Close()
	db, err := r.reopen(w.dir, "ev")
	if err != nil {
		return err
	}
	w.db = db

	// Exactly the acknowledged commits are there after the restart.
	res, err := db.Query(oltpRead)
	if err != nil {
		return err
	}
	got := map[int64][2]int64{}
	for _, row := range res.Rows {
		got[row[0].I] = [2]int64{row[1].I, row[2].I}
	}
	r.gate("preload_survives_restart", got[0] == [2]int64{w.preloadRows, w.preloadSum},
		"preloaded %d rows/sum %d, found %v", w.preloadRows, w.preloadSum, got[0])
	bal, err := db.Query("SELECT id, bal FROM acct")
	if err != nil {
		return err
	}
	balOf := map[int64]int64{}
	for _, row := range bal.Rows {
		balOf[row[0].I] = row[1].I
	}
	for _, c := range w.sessions {
		g := got[c.id]
		// A commit that returned an error may or may not be durable.
		ok := g[0] >= c.rows && g[0] <= c.rows+2*c.failed && balOf[c.id] == g[1]
		if c.failed == 0 {
			ok = ok && g[1] == c.sum
		}
		r.gate(fmt.Sprintf("session_%d_acked_commits_survive_restart", c.id), ok,
			"acknowledged %d rows/sum %d (%d commits in doubt), found %d rows/sum %d, balance %d",
			c.rows, c.sum, c.failed, g[0], g[1], balOf[c.id])
	}

	update := fmt.Sprintf("UPDATE acct SET bal = bal + %d WHERE id = %d", 100, 1)
	insert := "INSERT INTO ev VALUES (1000000002, 1, 17), (1000000003, 1, 71)"
	if err := r.endState(db, "ev", []string{oltpRead}, []string{"BEGIN", insert, update, "COMMIT"}); err != nil {
		return err
	}
	if err := r.checkpoint(db); err != nil {
		return err
	}
	r.notApplicable("batchexec.batch_over_row_x", "batchexec.dop2_over_serial_x",
		"server.overhead_us_p50", "server.encode_rows_per_s", "broker.admit_us_p50")
	r.setLoadLayer(&w.preload)
	return nil
}

func (w *oltpMVCC) teardown() {
	if w.db != nil {
		w.db.Close()
		w.db = nil
	}
}
