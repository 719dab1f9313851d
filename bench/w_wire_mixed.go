package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"apollo"
	"apollo/internal/load"
	"apollo/internal/server"
	"apollo/internal/server/broker"
	"apollo/internal/server/client"
	"apollo/internal/workload"
)

// wireMixed is the only workload on the real path — HTTP, auth, broker
// admission, server session, engine, result codec — and the only one with
// writes beside reads on one table. An in-process apollod serves one durable
// tenant behind a loopback listener; its cache is a quarter of the fact
// table's at-rest size, so the working set is larger than the cache. SSB at
// SF 1 goes in through /v1/load. One closed-loop client holds two
// connections and alternates between them: A streams the next of the 13 SSB
// queries and one wide date-range SELECT over /v1/query, then B commits a
// session transaction against the same lineorder table over /v1/exec: insert
// 4 rows, update 1, delete 1. (Two concurrent clients were tried first: with
// the server they are three busy parties on two cores, and A's latencies then
// depended on how the scheduler happened to pair them, 27 to 42 ms between
// identical runs. oltp_mvcc is the workload with concurrent sessions.)
//
// Every row B touches is dated 1999, outside the date dimension (1992-1998)
// and the wide SELECT's range: the rows it inserts, and a block of filler
// rows loaded and compressed with the fact table for it to update and
// delete. Every statement A runs therefore has to scan B's rows in the delta
// stores and skip its deletes in the delete bitmaps, yet never returns them,
// and so A's answers stay comparable with the row-mode oracle computed before
// any write.
type wireMixed struct {
	stmts  []string
	oracle *oracle

	root  string
	srv   *server.Server
	http  *http.Server
	serve chan error
	a, b  *client.Client
	loads loadStats

	loaded  int64 // lineorder rows loaded
	rng     *rand.Rand
	n       int64 // B's operations begun
	acked   int64 // B's acknowledged commits
	inDoubt int64
	prevKey int64 // first key of B's last committed insert, 0 if none
	lastOp  []string

	wideMs   []float64 // A's latencies of the wide statement
	wideRows int
}

const (
	wireSF        = 1
	wireFiller    = 8192        // rows loaded for B to update and delete
	wireFillKey   = 500_000_000 // their lo_orderkey values start here
	wireBatchRows = 8192        // rows per loaded row group
	wireTenant    = "bench"
	wireKey       = "bench-key"
	wireKeyBase   = 1_000_000_000 // B's lo_orderkey values start here, above every loaded key
	wireInsert    = 4
	wireDate      = "1999-06-15"
	wireWide      = `SELECT lo_orderkey, lo_custkey, lo_partkey, lo_suppkey, lo_orderdate, lo_quantity,
		lo_extendedprice, lo_discount, lo_revenue, lo_supplycost
		FROM lineorder WHERE lo_orderdate BETWEEN DATE '1994-03-01' AND DATE '1994-03-31'`
	wireCount = "SELECT COUNT(*) FROM dwdate" // answered from metadata: nothing but the path is timed
)

// wireData generates the star schema plus the filler block.
func wireData(r *runState) *workload.SSBData {
	d := workload.GenSSB(wireSF*r.p.scale, r.p.seed)
	rng := rand.New(rand.NewSource(r.p.seed + 1))
	day, _ := apollo.DateFromString(wireDate)
	for i := 0; i < r.p.scaled(wireFiller, 64); i++ {
		price := int64(90000 + rng.Intn(1000000))
		d.Lineorder = append(d.Lineorder, apollo.Row{
			apollo.NewInt(wireFillKey + int64(i)), apollo.NewInt(1), apollo.NewInt(1), apollo.NewInt(1),
			apollo.NewDate(day), apollo.NewInt(int64(1 + rng.Intn(50))), apollo.NewInt(price),
			apollo.NewInt(0), apollo.NewInt(price), apollo.NewInt(price * 6 / 10),
		})
	}
	return d
}

func (w *wireMixed) prepare(r *runState) error {
	w.stmts = append(ssbStatements(), wireWide)
	d := wireData(r)
	var err error
	w.oracle, err = buildOracle(r.p.seed, d, w.stmts)
	return err
}

func (w *wireMixed) setup(r *runState) error {
	ctx := context.Background()
	d := wireData(r)
	var err error
	if w.root, err = r.freshDir("wire"); err != nil {
		return err
	}
	cacheBytes := w.oracle.lineorderDiskBytes / 4
	w.srv, err = server.New(server.Config{
		Root:       w.root,
		Tenants:    map[string]string{wireTenant: wireKey},
		DB:         engineConfig(r.p.seed),
		CacheBytes: cacheBytes,
		// apollod's default admission limits.
		Limits: broker.Limits{PerTenant: 8, Global: 64, QueueDepth: 16,
			QueueTimeout: 5 * time.Second, GrantBytes: 64 << 20},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.http = &http.Server{Handler: w.srv.Handler()}
	w.serve = make(chan error, 1) // Serve's one result, read by teardown
	go func() { w.serve <- w.http.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	w.a, w.b = client.New(base, wireKey), client.New(base, wireKey)

	w.loads = loadStats{}
	for _, t := range ssbTables(d) {
		ddl := "CREATE TABLE " + t.name + " ("
		for i, c := range t.schema.Cols {
			if i > 0 {
				ddl += ", "
			}
			ddl += c.Name + " " + map[apollo.Type]string{apollo.Int64: "BIGINT", apollo.Date: "DATE", apollo.String: "VARCHAR"}[c.Typ]
		}
		if _, err := w.a.Exec(ctx, ddl+")"); err != nil {
			return fmt.Errorf("create %s: %w", t.name, err)
		}
		var csv bytes.Buffer
		for _, row := range t.rows {
			for i, v := range row {
				if i > 0 {
					csv.WriteByte(',')
				}
				csv.WriteString(load.CSVField(v))
			}
			csv.WriteByte('\n')
		}
		// The batch size is pinned. Left to itself the loader's controller
		// climbs on the rows per second it measures, so the same input came
		// out as 8 to 12 row groups from run to run, and the reads of the
		// whole timed phase were 20% slower on the unlucky layouts.
		res, err := w.a.Load(ctx, t.name, "csv", &csv, map[string]string{"batch_rows": strconv.Itoa(wireBatchRows)})
		if err != nil {
			return fmt.Errorf("load %s: %w", t.name, err)
		}
		if res.RowsLoaded != len(t.rows) {
			return fmt.Errorf("load %s: %d of %d rows", t.name, res.RowsLoaded, len(t.rows))
		}
		w.loads.add(res.RowsLoaded, res.RowsDirect, res.Groups, len(res.DeadLetters), 0, res.ElapsedMs/1000)
	}
	w.loaded = int64(len(d.Lineorder))
	if err := w.b.OpenSession(ctx); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(r.p.seed))
	w.n, w.acked, w.inDoubt, w.prevKey = 0, 0, 0, 0
	w.wideMs = nil
	r.describe(1, true, cacheBytes)
	r.info["connections"] = 2
	r.info["lineorder_bytes_at_rest"] = w.oracle.lineorderDiskBytes

	return w.round(r) // warm
}

// read is connection A: statement i, streamed, hashed as it arrives, checked.
func (w *wireMixed) read(r *runState, i int) error {
	t0 := time.Now()
	var got answer
	err := r.op("read", i, func(op spanID) error {
		r.sent(1)
		err := r.call(op, "client.QueryStream", func() error {
			_, err := w.a.QueryStream(context.Background(), w.stmts[i], nil, nil, func(row []any) error {
				got.add(hashWireRow(row))
				return nil
			})
			return err
		})
		if err != nil {
			return err
		}
		return w.oracle.check(i, got)
	})
	if err == nil && w.stmts[i] == wireWide && r.measuring.Load() {
		w.wideMs = append(w.wideMs, float64(time.Since(t0))/1e6)
		w.wideRows = got.rows
	}
	return err
}

// writeOp is connection B: one session transaction on lineorder.
func (w *wireMixed) writeOp(r *runState) error {
	ctx := context.Background()
	w.n++
	first := wireKeyBase + w.n*wireInsert
	insert, raw := lineorderInsert("lineorder", first, wireInsert, wireDate,
		func(n int) int64 { return int64(w.rng.Intn(n)) })
	// Update one and delete another compressed filler row while there are
	// any; after that, the first two rows of the previous committed
	// transaction; failing that, two of this transaction's own (its third
	// and fourth, so that the next one still finds the first two).
	target := first + 2
	if pair := wireFillKey + 2*(w.n-1); pair+1 < wireFillKey+int64(r.p.scaled(wireFiller, 64)) {
		target = pair
	} else if w.prevKey != 0 {
		target = w.prevKey
	}
	update := fmt.Sprintf("UPDATE lineorder SET lo_quantity = lo_quantity + 1 WHERE lo_orderkey = %d", target)
	del := fmt.Sprintf("DELETE FROM lineorder WHERE lo_orderkey = %d", target+1)
	w.lastOp = []string{"BEGIN", insert, update, del, "COMMIT"}
	exec := func(op spanID, span, stmt string, affected int) error {
		return r.call(op, span, func() error {
			res, err := w.b.Exec(ctx, stmt)
			if err == nil && affected >= 0 && res.Affected != affected {
				err = fmt.Errorf("%.40s...: affected %d rows, want %d", stmt, res.Affected, affected)
			}
			return err
		})
	}
	err := r.op("write", 0, func(op spanID) error {
		r.sent(5)
		if err := exec(op, "client.Exec", "BEGIN", -1); err != nil {
			return err
		}
		for _, s := range []struct {
			stmt     string
			affected int
		}{{insert, wireInsert}, {update, 1}, {del, 1}} {
			if err := exec(op, "client.Exec", s.stmt, s.affected); err != nil {
				w.b.Exec(ctx, "ROLLBACK") //nolint:errcheck // best effort; the operation already failed
				return err
			}
		}
		if err := exec(op, "commit", "COMMIT", -1); err != nil {
			w.inDoubt++
			return err
		}
		return nil
	})
	if err != nil {
		w.prevKey = 0 // whatever state the earlier rows are in, start over on own rows
		return err
	}
	w.acked++
	w.prevKey = first
	r.wrote(wireInsert, raw)
	return nil
}

// round takes every statement in turn: connection A streams it, then
// connection B commits one transaction.
func (w *wireMixed) round(r *runState) error {
	for i := range w.stmts {
		if err := w.read(r, i); err != nil && !r.measuring.Load() {
			return err
		}
		if err := w.writeOp(r); err != nil && !r.measuring.Load() {
			return err
		}
	}
	return nil
}

func (w *wireMixed) drive(r *runState) {
	for !r.done() {
		w.round(r) //nolint:errcheck // failures are counted by op
	}
}

func (w *wireMixed) finish(r *runState) error {
	ctx := context.Background()
	var wireCountUs []float64
	if r.p.trace {
		// Probes that need the live server.
		var admitUs []float64
		for i := 0; i < 1000; i++ {
			t0 := time.Now()
			release, err := w.srv.Broker().Admit(ctx, wireTenant)
			if err != nil {
				return err
			}
			release()
			admitUs = append(admitUs, float64(time.Since(t0))/1e3)
		}
		r.set("broker.admit_us_p50", median(admitUs))
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			if _, err := w.a.Exec(ctx, wireCount); err != nil {
				return err
			}
			wireCountUs = append(wireCountUs, float64(time.Since(t0))/1e3)
		}
		// Rows per second of wall on the wide streamed statement, execution
		// included: the result codec's share grows with the rows.
		r.set("server.encode_rows_per_s", ratio(float64(w.wideRows), median(w.wideMs)/1000))
	}
	w.stopServer()

	db, err := r.reopen(filepath.Join(w.root, wireTenant), "lineorder")
	if err != nil {
		return err
	}
	defer db.Close()
	res, err := db.Query("SELECT COUNT(*) FROM lineorder")
	if err != nil {
		return err
	}
	// Each acknowledged transaction inserted wireInsert rows and deleted one.
	want := w.loaded + w.acked*(wireInsert-1)
	got := res.Rows[0][0].I
	r.gate("lineorder_count_after_restart", got >= want && got <= want+w.inDoubt*(wireInsert-1),
		"COUNT(*)=%d, loaded %d + %d acknowledged transactions x %d rows = %d (%d in doubt)",
		got, w.loaded, w.acked, wireInsert-1, want, w.inDoubt)

	if err := r.endState(db, "lineorder", w.stmts, w.lastOp); err != nil {
		return err
	}
	if err := r.checkpoint(db); err != nil {
		return err
	}
	r.setLoadLayer(&w.loads)
	r.notApplicable("batchexec.dop2_over_serial_x")
	if !r.p.trace {
		return nil
	}
	var embeddedUs []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := db.Query(wireCount); err != nil {
			return err
		}
		embeddedUs = append(embeddedUs, float64(time.Since(t0))/1e3)
	}
	r.set("server.overhead_us_p50", median(wireCountUs)-median(embeddedUs))
	batchMs, err := roundLatencies(db, w.stmts)
	if err != nil {
		return err
	}
	r.set("batchexec.batch_over_row_x", speedup(w.oracle.rowModeMs, batchMs))
	return nil
}

// stopServer closes B's session, stops the listener, waits for Serve to
// return, and closes the tenant database.
func (w *wireMixed) stopServer() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.b.CloseSession(ctx) //nolint:errcheck // the server closes it anyway
	if err := w.http.Shutdown(ctx); err != nil {
		w.http.Close()
	}
	<-w.serve
	w.srv.Close()
	w.srv = nil
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func (w *wireMixed) teardown() { w.stopServer() }
