package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"apollo"
)

// bulkLoad is the ingest workload: an embedded durable database and one
// client that calls DB.Load with a freshly generated CSV chunk of exactly one
// row group, then checks the chunk with one aggregate over exactly its id
// range. The load pipeline (decode, batching), the encode side of encoding,
// colstore segment build, storage writes and the WAL's row-group publish do
// the work; it uses encoding and colstore in the opposite direction to
// ssb_scan. The read touches the chunk's row group; the rest are eliminated
// on id.
//
// A load call is one batch and so one published group: nine fsyncs (a file
// and a directory fsync per column blob, one for the WAL record) beside some
// 32ms of decoding and encoding. Left to the loader's adaptive controller, a
// 10k-row chunk went in as two groups and a delta tail, twenty fsyncs beside
// 14ms of work, and write latency then followed the disk's mood from one set
// of runs to the next (a 26% spread) rather than the program.
type bulkLoad struct {
	dir   string
	db    *apollo.DB
	rng   *rand.Rand
	loads loadStats

	chunkRows    int
	nextID       int64
	rows, sumID  int64 // acknowledged, warm-up included
	sumGrp       int64
	inDoubt      int64 // rows of load calls that returned an error
	lastReadStmt string
}

const (
	bulkChunkRows   = rowGroupSize
	bulkPreloadRows = 100000 // loaded in set-up, in one call
	bulkWarmLoads   = 3
)

func (w *bulkLoad) prepare(*runState) error { return nil }

func (w *bulkLoad) setup(r *runState) error {
	var err error
	if w.dir, err = r.freshDir("bulk"); err != nil {
		return err
	}
	if w.db, err = apollo.OpenDir(w.dir, engineConfig(r.p.seed)); err != nil {
		return err
	}
	if _, err := w.db.Exec("CREATE TABLE t (id BIGINT, grp BIGINT, d DATE, v VARCHAR)"); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(r.p.seed))
	w.chunkRows = r.p.scaled(bulkChunkRows, 200)
	w.nextID, w.rows, w.sumID, w.sumGrp, w.inDoubt = 0, 0, 0, 0, 0
	w.loads = loadStats{}
	r.describe(1, true, apollo.DefaultConfig().BufferPoolBytes)
	r.info["chunk_rows"] = w.chunkRows
	// The table starts with a body of rows rather than empty.
	if err := w.step(r, r.p.scaled(bulkPreloadRows, 1000)); err != nil {
		return err
	}
	for i := 0; i < bulkWarmLoads; i++ {
		if err := w.step(r, w.chunkRows); err != nil {
			return err
		}
	}
	return nil
}

// chunk generates the next rows as CSV and what an aggregate over them must
// return.
func (w *bulkLoad) chunk(buf *bytes.Buffer, rows int) (lo, hi, sumID, sumGrp int64) {
	lo, hi = w.nextID, w.nextID+int64(rows)
	var num [20]byte
	for id := lo; id < hi; id++ {
		grp := int64(w.rng.Intn(100))
		sumID += id
		sumGrp += grp
		buf.Write(strconv.AppendInt(num[:0], id, 10))
		buf.WriteByte(',')
		buf.Write(strconv.AppendInt(num[:0], grp, 10))
		buf.WriteString(",199")
		buf.WriteByte(byte('2' + w.rng.Intn(7)))
		buf.WriteString("-0")
		buf.WriteByte(byte('1' + w.rng.Intn(9)))
		buf.WriteString("-1")
		buf.WriteByte(byte('0' + w.rng.Intn(10)))
		buf.WriteString(",val")
		buf.Write(strconv.AppendInt(num[:0], int64(w.rng.Intn(1000)), 10))
		buf.WriteByte('\n')
	}
	return
}

// step is one load call of the next rows, in batches of a whole row group,
// and one verifying read of them.
func (w *bulkLoad) step(r *runState, rows int) error {
	var csv bytes.Buffer
	lo, hi, sumID, sumGrp := w.chunk(&csv, rows)
	w.nextID = hi
	size := csv.Len()
	err := r.op("write", 0, func(op spanID) error {
		var res *apollo.LoadResult
		t0 := time.Now()
		err := r.call(op, "db.Load", func() (err error) {
			res, err = w.db.Load(context.Background(), apollo.LoadOptions{Table: "t", Reader: &csv, BatchRows: rowGroupSize})
			return
		})
		if err != nil {
			return err
		}
		if res.RowsLoaded != rows || len(res.DeadLetters) != 0 {
			return fmt.Errorf("load acknowledged %d of %d rows, %d dead letters", res.RowsLoaded, rows, len(res.DeadLetters))
		}
		w.loads.add(res.RowsLoaded, res.RowsDirect, res.Groups, len(res.DeadLetters), res.FinalTarget, time.Since(t0).Seconds())
		return nil
	})
	if err != nil {
		w.inDoubt += hi - lo
		return err
	}
	w.rows += hi - lo
	w.sumID += sumID
	w.sumGrp += sumGrp
	r.wrote(rows, size)

	w.lastReadStmt = fmt.Sprintf("SELECT COUNT(*), SUM(id), SUM(grp) FROM t WHERE id >= %d AND id < %d", lo, hi)
	return r.op("read", 0, func(op spanID) error {
		var res *apollo.Result
		r.sent(1)
		if err := r.call(op, "db.Query", func() (err error) { res, err = w.db.Query(w.lastReadStmt); return }); err != nil {
			return err
		}
		row := res.Rows[0]
		if row[0].I != hi-lo || row[1].I != sumID || row[2].I != sumGrp {
			return fmt.Errorf("chunk [%d,%d) reads count %d sums %d/%d, generated %d sums %d/%d",
				lo, hi, row[0].I, row[1].I, row[2].I, hi-lo, sumID, sumGrp)
		}
		return nil
	})
}

func (w *bulkLoad) drive(r *runState) {
	for !r.done() {
		w.step(r, w.chunkRows) //nolint:errcheck // failures are counted by op
	}
}

func (w *bulkLoad) finish(r *runState) error {
	w.db.Close()
	db, err := r.reopen(w.dir, "t")
	if err != nil {
		return err
	}
	w.db = db
	res, err := db.Query("SELECT COUNT(*), SUM(id), SUM(grp) FROM t")
	if err != nil {
		return err
	}
	row := res.Rows[0]
	ok := row[0].I >= w.rows && row[0].I <= w.rows+w.inDoubt
	if w.inDoubt == 0 {
		ok = ok && row[1].I == w.sumID && row[2].I == w.sumGrp
	}
	r.gate("loaded_rows_match_generator_after_restart", ok,
		"COUNT(*)=%d SUM(id)=%d SUM(grp)=%d, generated %d/%d/%d (%d rows in doubt)",
		row[0].I, row[1].I, row[2].I, w.rows, w.sumID, w.sumGrp, w.inDoubt)

	if err := r.endState(db, "t", []string{w.lastReadStmt}, nil); err != nil {
		return err
	}
	if err := r.checkpoint(db); err != nil {
		return err
	}
	r.notApplicable("batchexec.batch_over_row_x", "batchexec.dop2_over_serial_x",
		"server.overhead_us_p50", "server.encode_rows_per_s", "broker.admit_us_p50")
	r.setLoadLayer(&w.loads)
	return nil
}

func (w *bulkLoad) teardown() {
	if w.db != nil {
		w.db.Close()
		w.db = nil
	}
}
