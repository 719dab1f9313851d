// Package persist ties the durability pieces together: checkpoint images
// (a CRC-protected snapshot of every table's state), the recovery procedure
// that loads the newest valid image and replays the write-ahead log over it,
// and the directory layout of a durable database:
//
//	<dir>/blobs/blob-<id>.blob     segment payloads (storage.DiskBacking)
//	<dir>/wal/<seq>.wal            write-ahead log segments
//	<dir>/checkpoint-<seq>.ckpt    checkpoint images (newest wins)
//
// The checkpoint is fuzzy: it rotates the WAL, then snapshots tables one at
// a time without a global freeze. The invariant that makes this correct is
// one-sided: every record in a segment below the rotation point is reflected
// in the image, while records at or above it may or may not be — so replay
// applies them idempotently (see internal/table/replay.go).
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"apollo/internal/catalog"
	"apollo/internal/metrics"
	"apollo/internal/storage"
	"apollo/internal/table"
	"apollo/internal/wal"
)

const (
	// ckptMagic versions the image format; 002 added row-version and
	// pending-delete sections to each table's state (MVCC).
	ckptMagic  = "APCKP002"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	mReplayed = metrics.Default.Counter("apollo_recovery_replayed_records_total",
		"write-ahead log records replayed during recovery")
	mCheckpoints = metrics.Default.Counter("apollo_checkpoints_total",
		"checkpoint images written")
	mOrphanBlobs = metrics.Default.Counter("apollo_recovery_orphan_blobs_total",
		"unreferenced blob files garbage-collected during recovery")
)

// WALDir returns the log directory under a database directory.
func WALDir(dataDir string) string { return filepath.Join(dataDir, "wal") }

// BlobDir returns the blob directory under a database directory.
func BlobDir(dataDir string) string { return filepath.Join(dataDir, "blobs") }

func ckptPath(dataDir string, seq uint64) string {
	return filepath.Join(dataDir, fmt.Sprintf("%s%08d%s", ckptPrefix, seq, ckptSuffix))
}

// parseCkptName extracts the replay-from sequence of a checkpoint file name.
func parseCkptName(name string) (uint64, bool) {
	base, ok := strings.CutPrefix(name, ckptPrefix)
	if !ok {
		return 0, false
	}
	base, ok = strings.CutSuffix(base, ckptSuffix)
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listCheckpoints returns checkpoint sequences present in dataDir, ascending.
func listCheckpoints(dataDir string) ([]uint64, error) {
	ents, err := os.ReadDir(dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseCkptName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// tableImage is one table's entry in a checkpoint image.
type tableImage struct {
	name  string
	def   []byte // table.EncodeTableDef
	state []byte // Table.MarshalState
}

// marshalCheckpoint builds the image file bytes: magic, seq, table entries,
// trailing CRC32C over everything before it.
func marshalCheckpoint(seq uint64, tables []tableImage) []byte {
	dst := []byte(ckptMagic)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(tables)))
	for _, ti := range tables {
		dst = binary.AppendUvarint(dst, uint64(len(ti.name)))
		dst = append(dst, ti.name...)
		dst = binary.AppendUvarint(dst, uint64(len(ti.def)))
		dst = append(dst, ti.def...)
		dst = binary.AppendUvarint(dst, uint64(len(ti.state)))
		dst = append(dst, ti.state...)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst, castagnoli))
}

// unmarshalCheckpoint parses and verifies an image file.
func unmarshalCheckpoint(buf []byte) (uint64, []tableImage, error) {
	if len(buf) < len(ckptMagic)+8+4 {
		return 0, nil, fmt.Errorf("persist: checkpoint too short")
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return 0, nil, fmt.Errorf("persist: checkpoint crc mismatch")
	}
	if string(body[:8]) != ckptMagic {
		return 0, nil, fmt.Errorf("persist: bad checkpoint magic")
	}
	seq := binary.LittleEndian.Uint64(body[8:16])
	pos := 16
	n64, n := binary.Uvarint(body[pos:])
	if n <= 0 || n64 > 1<<16 {
		return 0, nil, fmt.Errorf("persist: bad checkpoint table count")
	}
	pos += n
	readBytes := func() ([]byte, error) {
		l, n := binary.Uvarint(body[pos:])
		if n <= 0 || l > uint64(len(body)-pos-n) {
			return nil, fmt.Errorf("persist: truncated checkpoint entry")
		}
		pos += n
		out := body[pos : pos+int(l)]
		pos += int(l)
		return out, nil
	}
	tables := make([]tableImage, 0, n64)
	for i := uint64(0); i < n64; i++ {
		name, err := readBytes()
		if err != nil {
			return 0, nil, err
		}
		def, err := readBytes()
		if err != nil {
			return 0, nil, err
		}
		state, err := readBytes()
		if err != nil {
			return 0, nil, err
		}
		tables = append(tables, tableImage{name: string(name), def: def, state: state})
	}
	return seq, tables, nil
}

// Barrier locks out the transaction commit pipeline (txn.Manager implements
// it via CommitBarrier's underlying mutex semantics).
type Barrier interface {
	Lock()
	Unlock()
}

// WriteCheckpoint takes a fuzzy checkpoint: rotate the WAL (the new
// segment's sequence becomes the image's replay point), snapshot every
// table, write the image durably, log checkpoint-end, and truncate segments
// below the replay point. Concurrent DML is safe; its records land in the
// new segment and replay idempotently.
//
// barrier (nil allowed) is held across the rotation so no transaction commit
// straddles the replay point: without it, a TCommit record could land below
// the rotation (truncated away) while its version flips reach the image late
// or not at all — recovery would then roll back a committed transaction.
// With the barrier, any commit whose TCommit is below the rotation has fully
// applied before the image is cut, and any commit after it replays.
func WriteCheckpoint(dataDir string, w *wal.Writer, cat *catalog.Catalog, barrier Barrier) (uint64, error) {
	if barrier == nil {
		barrier = noBarrier{}
	}
	barrier.Lock()
	seq, err := w.Rotate()
	if err != nil {
		barrier.Unlock()
		return 0, err
	}
	err = w.Append(&wal.Record{Type: wal.TCheckpointBegin, A: seq})
	barrier.Unlock()
	if err != nil {
		return 0, err
	}

	var tables []tableImage
	for _, name := range cat.List() {
		t, err := cat.Get(name)
		if err != nil {
			continue // dropped since List; its drop record will replay
		}
		tables = append(tables, tableImage{
			name:  name,
			def:   table.EncodeTableDef(t.Schema, t.Opts),
			state: t.MarshalState(),
		})
	}

	img := marshalCheckpoint(seq, tables)
	tmp := ckptPath(dataDir, seq) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("persist: create checkpoint: %w", err)
	}
	if _, err := f.Write(img); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("persist: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, ckptPath(dataDir, seq)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("persist: publish checkpoint: %w", err)
	}
	// The rename's directory entry must be durable before TCheckpointEnd is
	// logged and the covered WAL prefix truncated: swallowing a failure here
	// could discard the only copy of the history the missing image was
	// supposed to replace.
	if err := syncDir(dataDir); err != nil {
		return 0, fmt.Errorf("persist: sync data dir after publishing checkpoint: %w", err)
	}

	if err := w.Append(&wal.Record{Type: wal.TCheckpointEnd, A: seq}); err != nil {
		return seq, err
	}
	if err := w.Sync(); err != nil {
		return seq, err
	}
	mCheckpoints.Inc()

	// Truncate: the image covers everything below seq. Best effort — a crash
	// here just leaves files recovery ignores (and cleans next time).
	if err := w.RemoveSegmentsBelow(seq); err != nil {
		return seq, err
	}
	old, _ := listCheckpoints(dataDir)
	for _, s := range old {
		if s < seq {
			os.Remove(ckptPath(dataDir, s))
		}
	}
	return seq, nil
}

// noBarrier is the Barrier used when no transaction manager exists.
type noBarrier struct{}

func (noBarrier) Lock()   {}
func (noBarrier) Unlock() {}

// syncDir fsyncs a directory so a rename within it is durable. Platforms
// that reject directory fsync outright (EINVAL/ENOTSUP) are tolerated;
// every real failure propagates — "best effort" here would silently trade
// away the checkpoint's durability.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		if errors.Is(serr, syscall.EINVAL) || errors.Is(serr, syscall.ENOTSUP) {
			return nil
		}
		return serr
	}
	return cerr
}

// RecoverResult summarizes a recovery.
type RecoverResult struct {
	Writer          *wal.Writer
	CheckpointSeq   uint64 // replay point of the image used (0 = none)
	ReplayedRecords int64
	TruncatedTail   bool
	OrphanBlobs     int
	BlobsLoaded     int
}

// Recover brings a database directory back to its last durable state: load
// blob files, restore the newest valid checkpoint image, replay the WAL over
// it (repairing a torn tail in place), garbage-collect orphan blobs, and
// open a fresh WAL segment for new writes. The catalog must be empty. Log
// damage anywhere but the writable tail surfaces as wal.ErrCorrupt.
func Recover(dataDir string, store *storage.Store, cat *catalog.Catalog, opts wal.Options) (*RecoverResult, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create data dir: %w", err)
	}
	backing, err := storage.OpenDiskBacking(BlobDir(dataDir), opts.Policy != wal.FsyncOff)
	if err != nil {
		return nil, err
	}
	store.AttachBacking(backing)
	res := &RecoverResult{}
	if res.BlobsLoaded, err = store.LoadFromBacking(); err != nil {
		return nil, err
	}

	// Newest valid checkpoint image; fall back past damaged ones (a crash
	// can only damage the newest, and only before its rename — but stay
	// defensive and scan backwards).
	ckpts, err := listCheckpoints(dataDir)
	if err != nil {
		return nil, err
	}
	var images []tableImage
	skippedNewer := false
	found := false
	for i := len(ckpts) - 1; i >= 0; i-- {
		buf, err := os.ReadFile(ckptPath(dataDir, ckpts[i]))
		if err == nil {
			seq, tables, uerr := unmarshalCheckpoint(buf)
			if uerr == nil && seq == ckpts[i] {
				res.CheckpointSeq = seq
				images = tables
				found = true
				break
			}
		}
		skippedNewer = true
	}
	if !found && len(ckpts) > 0 {
		// Every image on disk is damaged. Replaying from nothing would scan
		// a log whose prefix the newest checkpoint already truncated —
		// silent partial recovery, not a usable fallback.
		return nil, fmt.Errorf("persist: no valid checkpoint image among %d candidates: %w", len(ckpts), wal.ErrCorrupt)
	}
	if found && skippedNewer {
		// A damaged checkpoint newer than the one chosen existed, so its
		// truncation may already have deleted the chosen image's segments.
		// The rotate that produced the chosen image created segment
		// CheckpointSeq; if that file is gone, the log between the two
		// checkpoints is gone with it and replay would recover a partial
		// state. (Scan also rejects ranges not starting at CheckpointSeq;
		// this catches the WAL being emptied entirely.)
		if _, serr := os.Stat(filepath.Join(WALDir(dataDir), wal.SegmentName(res.CheckpointSeq))); serr != nil {
			return nil, fmt.Errorf("persist: checkpoint %d usable only with WAL segment %d, which is missing: %w",
				res.CheckpointSeq, res.CheckpointSeq, wal.ErrCorrupt)
		}
	}
	for _, ti := range images {
		schema, topts, err := table.DecodeTableDef(ti.def)
		if err != nil {
			return nil, fmt.Errorf("persist: table %s def: %w", ti.name, err)
		}
		t := table.New(store, ti.name, schema, topts)
		if err := t.RestoreState(ti.state); err != nil {
			return nil, err
		}
		if err := cat.Install(t); err != nil {
			return nil, err
		}
	}

	// Replay pass 1: repair a torn tail and collect the committed-transaction
	// set. A transaction is committed iff its TCommit record survives in the
	// (repaired) durable log; everything else rolls back. Nothing is applied
	// in this pass — the committed set must be known before any transactional
	// record is interpreted.
	committed := make(map[uint64]uint64)
	scan1, err := wal.Scan(WALDir(dataDir), res.CheckpointSeq, true, func(_ uint64, rec *wal.Record) error {
		if rec.Type == wal.TCommit {
			committed[rec.Txn] = rec.A
		}
		return nil
	})
	res.TruncatedTail = scan1.Truncated
	if err != nil {
		return nil, err
	}

	// Replay pass 2: apply the committed prefix over the image. Records of
	// uncommitted transactions are skipped; TCommit finalizes any provisional
	// state the fuzzy image captured for its transaction.
	scan, err := wal.Scan(WALDir(dataDir), res.CheckpointSeq, false, func(_ uint64, rec *wal.Record) error {
		return applyRecord(store, cat, rec, committed)
	})
	res.ReplayedRecords = scan.Records
	if err != nil {
		return nil, err
	}
	mReplayed.Add(scan.Records)

	// Post-replay normalization and orphan-blob GC: blobs written by builds
	// or checkpoints whose publish never became durable are unreachable from
	// every directory — delete their files.
	keep := make(map[uint64]bool)
	for _, name := range cat.List() {
		if t, err := cat.Get(name); err == nil {
			t.FinishRecovery()
			t.LiveBlobs(keep)
		}
	}
	keepIDs := make(map[storage.BlobID]bool, len(keep))
	for id := range keep {
		keepIDs[storage.BlobID(id)] = true
	}
	res.OrphanBlobs = store.RetainOnly(keepIDs)
	mOrphanBlobs.Add(int64(res.OrphanBlobs))

	// New writes go to a fresh segment past everything scanned.
	w, err := wal.Create(WALDir(dataDir), scan.LastSeq+1, opts)
	if err != nil {
		return nil, err
	}
	cat.SetWAL(w)
	for _, name := range cat.List() {
		if t, err := cat.Get(name); err == nil {
			t.SetWAL(w)
		}
	}
	res.Writer = w
	return res, nil
}

// applyRecord dispatches one replayed record. committed maps transaction ids
// to commit timestamps (from pass 1); records of transactions outside it are
// dropped — the committed-prefix property.
func applyRecord(store *storage.Store, cat *catalog.Catalog, rec *wal.Record, committed map[uint64]uint64) error {
	if rec.Txn != 0 {
		switch rec.Type {
		case wal.TBegin, wal.TAbort:
			return nil
		case wal.TCommit:
			// Finalize provisional state the fuzzy image may hold for this
			// transaction (records replayed from the log applied physically
			// already). The transaction may span tables, so fan out.
			for _, name := range cat.List() {
				if t, err := cat.Get(name); err == nil {
					t.CommitTxn(rec.Txn, rec.A)
				}
			}
			return nil
		default:
			if _, ok := committed[rec.Txn]; !ok {
				return nil // transaction never committed; discard its effects
			}
		}
	}
	switch rec.Type {
	case wal.TCreateTable:
		if _, err := cat.Get(rec.Table); err == nil {
			return nil // image already holds it
		}
		schema, topts, err := table.DecodeTableDef(rec.Payload)
		if err != nil {
			return fmt.Errorf("persist: replay create %s: %w", rec.Table, err)
		}
		return cat.Install(table.New(store, rec.Table, schema, topts))
	case wal.TDropTable:
		if _, err := cat.Get(rec.Table); err != nil {
			return nil
		}
		return cat.Drop(rec.Table)
	case wal.TCheckpointBegin, wal.TCheckpointEnd:
		return nil
	default:
		t, err := cat.Get(rec.Table)
		if err != nil {
			// Table dropped later in the log (the drop's effect may already
			// be in the image while earlier records still replay).
			return nil
		}
		return t.ReplayRecord(rec)
	}
}
