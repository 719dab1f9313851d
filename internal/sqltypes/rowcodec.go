package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Row codec: a compact schema-dependent binary encoding used by the WAL's
// delta-insert records, checkpoint images of delta stores, and the bulk
// loader's length-prefixed binary input.
//
// Layout per row:
//
//	null bitmap  ceil(ncols/8) bytes, bit i set => column i is NULL
//	per non-NULL column, in schema order:
//	  Int64/Date: zig-zag varint
//	  Bool:       1 byte
//	  Float64:    8 bytes little-endian IEEE-754
//	  String:     uvarint length + bytes

// EncodeRow appends the encoding of row (which must match schema) to dst and
// returns the extended slice.
func EncodeRow(dst []byte, schema *Schema, row Row) []byte {
	n := len(schema.Cols)
	nullOff := len(dst)
	for i := 0; i < (n+7)/8; i++ {
		dst = append(dst, 0)
	}
	for i, col := range schema.Cols {
		v := row[i]
		if v.Null {
			dst[nullOff+i/8] |= 1 << uint(i%8)
			continue
		}
		switch col.Typ {
		case Int64, Date:
			dst = binary.AppendVarint(dst, v.I)
		case Bool:
			dst = append(dst, byte(v.I&1))
		case Float64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case String:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		default:
			panic(fmt.Sprintf("sqltypes: cannot encode type %v", col.Typ))
		}
	}
	return dst
}

// DecodeRow decodes one row from buf into a freshly allocated Row, returning
// the row and the number of bytes consumed.
func DecodeRow(buf []byte, schema *Schema) (Row, int, error) {
	ncols := len(schema.Cols)
	row := make(Row, ncols)
	nullBytes := (ncols + 7) / 8
	if len(buf) < nullBytes {
		return nil, 0, fmt.Errorf("sqltypes: row truncated in null bitmap")
	}
	nulls := buf[:nullBytes]
	pos := nullBytes
	for i, col := range schema.Cols {
		if nulls[i/8]&(1<<uint(i%8)) != 0 {
			row[i] = NewNull(col.Typ)
			continue
		}
		switch col.Typ {
		case Int64, Date:
			v, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("sqltypes: bad varint in column %d", i)
			}
			pos += n
			row[i] = Value{Typ: col.Typ, I: v}
		case Bool:
			if pos >= len(buf) {
				return nil, 0, fmt.Errorf("sqltypes: row truncated in column %d", i)
			}
			row[i] = Value{Typ: Bool, I: int64(buf[pos] & 1)}
			pos++
		case Float64:
			if pos+8 > len(buf) {
				return nil, 0, fmt.Errorf("sqltypes: row truncated in column %d", i)
			}
			row[i] = Value{Typ: Float64, F: math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))}
			pos += 8
		case String:
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("sqltypes: bad string length in column %d", i)
			}
			pos += n
			// Compare in uint64: a hostile length can overflow int and slip
			// past a pos+int(l) check as a negative slice bound.
			if l > uint64(len(buf)-pos) {
				return nil, 0, fmt.Errorf("sqltypes: row truncated in column %d", i)
			}
			row[i] = Value{Typ: String, S: string(buf[pos : pos+int(l)])}
			pos += int(l)
		default:
			return nil, 0, fmt.Errorf("sqltypes: cannot decode type %v", col.Typ)
		}
	}
	return row, pos, nil
}
