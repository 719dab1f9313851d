package load

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"apollo/internal/sqltypes"
)

func testSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Typ: sqltypes.Int64, Nullable: true},
		sqltypes.Column{Name: "name", Typ: sqltypes.String, Nullable: true},
		sqltypes.Column{Name: "score", Typ: sqltypes.Float64, Nullable: true},
		sqltypes.Column{Name: "ok", Typ: sqltypes.Bool, Nullable: true},
		sqltypes.Column{Name: "day", Typ: sqltypes.Date, Nullable: true},
	)
}

// fakeSink records what the loader handed it.
type fakeSink struct {
	direct   [][]sqltypes.Row
	delta    [][]sqltypes.Row
	failures int // fail the first N calls with a non-transient error
}

func (f *fakeSink) CompressDirect(rows []sqltypes.Row) (int, error) {
	if f.failures > 0 {
		f.failures--
		return 0, errors.New("sink: injected failure")
	}
	f.direct = append(f.direct, append([]sqltypes.Row(nil), rows...))
	return 1, nil
}

func (f *fakeSink) InsertBatch(_ context.Context, rows []sqltypes.Row) error {
	if f.failures > 0 {
		f.failures--
		return errors.New("sink: injected failure")
	}
	f.delta = append(f.delta, append([]sqltypes.Row(nil), rows...))
	return nil
}

func (f *fakeSink) rows() int {
	n := 0
	for _, b := range f.direct {
		n += len(b)
	}
	for _, b := range f.delta {
		n += len(b)
	}
	return n
}

func csvInput(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d,name-%d,%g,true,2024-03-%02d\n", i, i%7, float64(i)*0.5, 1+i%28)
	}
	return sb.String()
}

func TestLoaderSplitsDirectAndDelta(t *testing.T) {
	sink := &fakeSink{}
	ldr, err := New(sink, Options{RowGroupSize: 100, BulkThreshold: 50, BatchRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	// 230 rows at batch 100: two direct batches of 100, remainder 30 < 50 → delta.
	res, err := ldr.Run(context.Background(), NewCSVReader(strings.NewReader(csvInput(230)), testSchema(), CSVOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsLoaded != 230 || res.RowsDirect != 200 || res.RowsDelta != 30 || res.Groups != 2 {
		t.Fatalf("got %+v, want 230 loaded / 200 direct / 30 delta / 2 groups", res)
	}
	if len(sink.direct) != 2 || len(sink.delta) != 1 {
		t.Fatalf("sink saw %d direct, %d delta batches", len(sink.direct), len(sink.delta))
	}
	if len(res.Batches) != 3 {
		t.Fatalf("expected 3 batch stats, got %d", len(res.Batches))
	}
}

func TestLoaderDeadLettersMalformedRows(t *testing.T) {
	input := "1,a,1.5,true,2024-01-01\n" +
		"not-an-int,b,2.5,true,2024-01-02\n" + // bad BIGINT
		"4,d,4.5,maybe,2024-01-04\n" + // bad BOOLEAN
		"5,e,5.5,false,2024-01-05\n" +
		"too,few,fields\n" + // field-count mismatch
		"3,\"unterminated,3.5,true,2024-01-03\n" // bad quoting (swallows to EOF)
	sink := &fakeSink{}
	ldr, _ := New(sink, Options{RowGroupSize: 100, BulkThreshold: 100})
	res, err := ldr.Run(context.Background(), NewCSVReader(strings.NewReader(input), testSchema(), CSVOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.DeadLetters); got != 4 {
		t.Fatalf("expected 4 dead letters, got %d: %+v", got, res.DeadLetters)
	}
	if res.RowsLoaded != 2 {
		t.Fatalf("accounting off: %d loaded + %d dead from 6 input rows", res.RowsLoaded, len(res.DeadLetters))
	}
}

func TestLoaderDeadLetterCapAborts(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		sb.WriteString("bad,x,1.0,true,2024-01-01\n")
	}
	sink := &fakeSink{}
	ldr, _ := New(sink, Options{RowGroupSize: 100, MaxDeadLetters: 3})
	res, err := ldr.Run(context.Background(), NewCSVReader(strings.NewReader(sb.String()), testSchema(), CSVOptions{}))
	if err == nil {
		t.Fatal("expected abort after dead-letter cap")
	}
	if len(res.DeadLetters) != 4 {
		t.Fatalf("expected 4 collected dead letters (cap 3 + the one that tripped it), got %d", len(res.DeadLetters))
	}
}

func TestLoaderZeroCapRejectsFirstBadRow(t *testing.T) {
	input := "1,a,1.0,true,2024-01-01\nbad,b,2.0,true,2024-01-02\n"
	sink := &fakeSink{}
	ldr, _ := New(sink, Options{RowGroupSize: 100, MaxDeadLetters: -1})
	if _, err := ldr.Run(context.Background(), NewCSVReader(strings.NewReader(input), testSchema(), CSVOptions{})); err == nil {
		t.Fatal("expected first malformed row to abort with MaxDeadLetters<0")
	}
}

func TestLoaderNonTransientErrorFails(t *testing.T) {
	sink := &fakeSink{failures: 1}
	ldr, _ := New(sink, Options{RowGroupSize: 50, BulkThreshold: 10})
	_, err := ldr.Run(context.Background(), NewCSVReader(strings.NewReader(csvInput(60)), testSchema(), CSVOptions{}))
	if err == nil {
		t.Fatal("expected non-transient sink failure to abort the load")
	}
}

func TestCSVNullsAndQuoting(t *testing.T) {
	input := `\N,,\N,\N,\N` + "\n" +
		`7,"says ""hi"", twice",,true,2024-12-31` + "\n"
	r := NewCSVReader(strings.NewReader(input), testSchema(), CSVOptions{})
	row1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !row1[0].Null || !row1[2].Null || !row1[3].Null || !row1[4].Null {
		t.Fatalf("expected NULLs, got %v", row1)
	}
	if row1[1].Null || row1[1].S != "" {
		t.Fatalf("empty string field should be empty string, got %v", row1[1])
	}
	row2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if row2[1].S != `says "hi", twice` {
		t.Fatalf("quoting broken: %q", row2[1].S)
	}
	if !row2[2].Null {
		t.Fatalf("empty DOUBLE field should be NULL, got %v", row2[2])
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestCSVHeaderAndDelimiter(t *testing.T) {
	input := "id|name|score|ok|day\n1|x|2.5|false|2020-06-15\n"
	r := NewCSVReader(strings.NewReader(input), testSchema(), CSVOptions{Comma: '|', Header: true})
	row, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 1 || row[1].S != "x" || row[2].F != 2.5 || row[3].Bool() {
		t.Fatalf("bad row: %v", row)
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	schema := testSchema()
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewFloat(1.25), sqltypes.NewBool(true), sqltypes.NewDate(19000)},
		{sqltypes.NewNull(sqltypes.Int64), sqltypes.NewNull(sqltypes.String), sqltypes.NewNull(sqltypes.Float64), sqltypes.NewNull(sqltypes.Bool), sqltypes.NewNull(sqltypes.Date)},
		{sqltypes.NewInt(-9), sqltypes.NewString(strings.Repeat("z", 500)), sqltypes.NewFloat(-0.5), sqltypes.NewBool(false), sqltypes.NewDate(0)},
	}
	var buf []byte
	for _, row := range rows {
		buf = AppendFrame(buf, schema, row)
	}
	r := NewBinaryReader(bytes.NewReader(buf), schema)
	for i, want := range rows {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		for c := range want {
			if got[c].Null != want[c].Null || (!want[c].Null && got[c].String() != want[c].String()) {
				t.Fatalf("row %d col %d: got %v want %v", i, c, got[c], want[c])
			}
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBinaryTruncatedFrameIsFatal(t *testing.T) {
	schema := testSchema()
	buf := AppendFrame(nil, schema, sqltypes.Row{
		sqltypes.NewInt(1), sqltypes.NewString("abc"), sqltypes.NewFloat(1), sqltypes.NewBool(true), sqltypes.NewDate(1),
	})
	r := NewBinaryReader(bytes.NewReader(buf[:len(buf)-2]), schema)
	_, err := r.Next()
	if err == nil || err == io.EOF {
		t.Fatalf("truncated frame must be a fatal error, got %v", err)
	}
	var re *RowError
	if errors.As(err, &re) {
		t.Fatal("truncation must not be a recoverable RowError")
	}
}

func TestBinaryOversizedFrameIsFatal(t *testing.T) {
	// Frame length far beyond MaxFrameBytes.
	buf := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00}
	r := NewBinaryReader(bytes.NewReader(buf), testSchema())
	_, err := r.Next()
	if err == nil || err == io.EOF {
		t.Fatalf("oversized frame must be fatal, got %v", err)
	}
}

func TestControllerClimbsAndReverses(t *testing.T) {
	c := newController(Options{RowGroupSize: 1 << 16, BulkThreshold: 1 << 10})
	if c.target() != 1<<10 {
		t.Fatalf("controller should start at the threshold, got %d", c.target())
	}
	// Monotonically improving throughput keeps the controller growing.
	last := c.target()
	for i := 0; i < 10; i++ {
		c.observe(float64(1000 * (i + 1)))
		if c.target() < last {
			t.Fatalf("controller shrank (%d -> %d) under improving throughput", last, c.target())
		}
		last = c.target()
	}
	grown := c.target()
	if grown <= 1<<10 {
		t.Fatalf("controller never grew: %d", grown)
	}
	// A big throughput drop reverses the direction.
	c.observe(100)
	if c.target() >= grown {
		t.Fatalf("controller did not back off after a throughput drop: %d -> %d", grown, c.target())
	}
	// Targets always stay within [threshold, row group size].
	for i := 0; i < 100; i++ {
		c.observe(float64(50 + i%3*10000))
		if c.target() < 1<<10 || c.target() > 1<<16 {
			t.Fatalf("controller escaped its bounds: %d", c.target())
		}
	}
}

func TestGrantPressureFlushesEarly(t *testing.T) {
	sink := &fakeSink{}
	// Strings are ~1KiB per row; a 64KiB grant forces flushes well before the
	// 1<<20-row adaptive target, but never below the 16-row threshold.
	ldr, _ := New(sink, Options{RowGroupSize: 1 << 20, BulkThreshold: 16, GrantBytes: 64 << 10})
	var sb strings.Builder
	big := strings.Repeat("x", 1024)
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "%d,%s,1.0,true,2024-01-01\n", i, big)
	}
	res, err := ldr.Run(context.Background(), NewCSVReader(strings.NewReader(sb.String()), testSchema(), CSVOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) < 4 {
		t.Fatalf("grant pressure should have forced multiple flushes, got %d batches", len(res.Batches))
	}
	for i, b := range res.Batches {
		if b.Direct {
			// Pressure caps every direct flush far below the 1<<20-row
			// adaptive ceiling (~64KiB / ~1KiB rows), never below threshold.
			if b.Rows < 16 || b.Rows > 128 {
				t.Fatalf("direct batch %d outside the pressure window: %+v", i, b)
			}
			continue
		}
		// Only a sub-threshold tail at EOF may fall back to delta; a
		// mid-stream delta flush would mean pressure diverted bulk rows.
		if i != len(res.Batches)-1 || b.Rows >= 16 {
			t.Fatalf("pressure flush diverted bulk rows to the delta store: batch %d %+v", i, b)
		}
	}
	if sink.rows() != 500 {
		t.Fatalf("lost rows: sink saw %d of 500", sink.rows())
	}
}

func TestPipelinedDeliversAllRowsAndErrors(t *testing.T) {
	input := csvInput(100) + "bad,x,1.0,true,2024-01-01\n" + csvInput(5)
	r := Pipelined(context.Background(), NewCSVReader(strings.NewReader(input), testSchema(), CSVOptions{}), 8)
	rows, dead := 0, 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		var re *RowError
		if errors.As(err, &re) {
			dead++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		rows++
	}
	if rows != 105 || dead != 1 {
		t.Fatalf("pipelined reader delivered %d rows, %d dead letters; want 105/1", rows, dead)
	}
}

func TestPipelinedCancellationUnblocksProducer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Small depth so the producer blocks quickly; never drain.
	r := Pipelined(ctx, NewCSVReader(strings.NewReader(csvInput(10000)), testSchema(), CSVOptions{}), 1)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Drain whatever was buffered; the reader must terminate (EOF or ctx
	// error), not hang.
	for i := 0; i < 10; i++ {
		if _, err := r.Next(); err != nil {
			if err != context.Canceled && err != io.EOF {
				t.Fatalf("unexpected terminal error: %v", err)
			}
			return
		}
	}
	t.Fatal("pipelined reader kept producing after cancellation")
}
