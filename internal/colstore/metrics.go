package colstore

import "apollo/internal/metrics"

// Per-encoding segment-open counters and decode-time histograms. The decode
// timer wraps unmarshalPayload in OpenColumn — the point where at-rest bytes
// become a usable code stream — so the histogram isolates that CPU from
// storage I/O (which Store.Get already accounts for). Opening parses the
// header, null bitmap and RLE run table only; codes are decoded later, row by
// row or chunk by chunk, by whoever reads them, outside this timer.
var (
	mSegDict = metrics.Default.Counter(`apollo_colstore_segments_opened_total{enc="dict"}`,
		"column segments opened, by encoding")
	mSegNumeric = metrics.Default.Counter(`apollo_colstore_segments_opened_total{enc="numeric"}`,
		"column segments opened, by encoding")
	mDecodeDict = metrics.Default.Histogram(`apollo_colstore_decode_seconds{enc="dict"}`,
		"segment payload decode time, by encoding", nil)
	mDecodeNumeric = metrics.Default.Histogram(`apollo_colstore_decode_seconds{enc="numeric"}`,
		"segment payload decode time, by encoding", nil)
)
