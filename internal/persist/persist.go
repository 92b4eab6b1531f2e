// Package persist is the durability layer of the engine: it makes the
// optimizer-chosen physical layouts — the asset the whole system manages —
// survive process restarts.
//
// Two artifacts live in the data directory:
//
//   - snapshot.db — a layout-aware binary checkpoint of the full catalog:
//     schemas, the exact storage.Layout partitionings, partition word
//     data, dictionaries and index definitions, each table section
//     CRC-checked. A restore is bit-identical: same Parts strides and
//     offsets, same dictionary codes.
//   - wal.log — an append-only log of the mutations since the snapshot:
//     inserts, table creations (bulk loads), re-layout decisions and index
//     creations. Recovery is snapshot + WAL replay; a torn final record
//     (the write in flight at the crash) is discarded.
//
// Durability contract: every Log call writes one record and returns only
// after it is flushed to the WAL file — an acknowledged mutation is on
// disk, with no later flush to wait for; with Options.Fsync it is also
// fsync'd, making it crash-durable. Snapshots are always written to a
// temp file, fsync'd and atomically renamed, so a crash mid-checkpoint
// leaves the previous snapshot intact. Without Fsync, a kernel crash can lose the tail of the
// WAL that the OS had not written back; a plain process kill (SIGKILL)
// loses nothing that was committed.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

const (
	snapshotFile = "snapshot.db"
	walFile      = "wal.log"
	// walNewFile is the successor WAL a concurrent checkpoint stages: the
	// next epoch's header plus every mutation record committed after the
	// checkpoint pinned its snapshot. It is renamed over wal.log as the
	// final step; Open completes the rotation if a crash interrupted it.
	walNewFile = "wal.new"
)

// Options configures a Manager.
type Options struct {
	// Dir is the data directory (created if missing).
	Dir string
	// Fsync makes WAL commits and snapshots fsync before returning.
	Fsync bool
	// Fresh discards any existing snapshot and WAL instead of recovering
	// from them.
	Fresh bool
}

// Manager owns the durability state of one database: the WAL append side
// and the checkpoint procedure. Loggers serialize on the internal mutex;
// the service layer additionally serializes loggers against each other
// with its commit mutex so WAL order matches publication order. A
// checkpoint needs no exclusion at all: BeginCheckpoint notes the
// committed WAL position while the caller pins an MVCC snapshot, the
// snapshot serializes without any lock, and CheckpointFrom preserves the
// records committed in the meantime as the new WAL's suffix.
type Manager struct {
	dir   string
	fsync bool

	mu     sync.Mutex // serializes WAL file operations against rotation
	w      *wal
	reader *os.File // read side of the WAL, for replication tails

	// committed is the flushed, frame-aligned prefix of the WAL — the
	// bytes a replica may tail. records counts the mutation records in
	// that prefix (the leading epoch record is excluded). notify is
	// closed and replaced on every commit and rotation, waking parked
	// long-poll tails.
	committed int64
	records   int64
	notify    chan struct{}

	epoch uint64 // current checkpoint epoch (snapshot and WAL agree)

	// Write tracing: every commit is stamped with a monotonic sequence
	// number, its wall-clock time and the correlation id of the write
	// that triggered it (Tag). The stamps ring maps committed WAL offsets
	// back to those stamps so TailRead can tell a follower *when* the
	// newest bytes it ships were committed — the primary half of
	// commit-to-visible lag. Rotation clears the ring (offsets restart);
	// stampSeq keeps rising for the manager's lifetime.
	stampSeq int64
	stamps   []commitStamp // ring, stampRingSize entries once full
	stampPos int           // next write index
	stampN   int           // valid entries
	tag      string        // sticky query id consumed by the next commit

	// Metric hooks, nil until SetMetrics: fsync latency per group commit
	// and total bytes appended (frames included). Kept as plain fields
	// under mu — every reader already holds it.
	fsyncHist   *obs.Histogram
	walAppended *obs.Counter
}

// commitStamp records one durable group commit: the committed WAL
// length it produced, its process-monotonic sequence number, the
// wall-clock commit time and the correlation id of the triggering write
// (empty when untagged).
type commitStamp struct {
	end   int64 // committed WAL length after this commit
	seq   int64
	nanos int64 // unix nanoseconds at commit
	qid   string
}

// stampRingSize bounds the commit-stamp ring. Followers nearly caught
// up resolve against the newest stamps; one lagging by more than the
// ring simply gets no stamp (zero values), never a wrong one.
const stampRingSize = 512

// SetMetrics wires the durability metrics in: fsync gets one observation
// per group commit (fsync mode only), walAppended every framed byte.
// Either may be nil. The service layer calls this from AttachPersist,
// before the manager starts committing for it.
func (m *Manager) SetMetrics(fsync *obs.Histogram, walAppended *obs.Counter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fsyncHist = fsync
	m.walAppended = walAppended
}

// Open recovers (or initializes) a database from the data directory and
// returns it together with the Manager that logs its future mutations.
func Open(opts Options) (*core.DB, *Manager, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("persist: empty data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	snapPath := filepath.Join(opts.Dir, snapshotFile)
	walPath := filepath.Join(opts.Dir, walFile)
	newPath := filepath.Join(opts.Dir, walNewFile)
	if opts.Fresh {
		for _, p := range []string{snapPath, walPath, newPath} {
			if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, nil, err
			}
		}
	}

	// Snapshot and WAL go into one transaction on a fresh database: a
	// recovery that fails anywhere publishes nothing.
	db := core.Open()
	tx := db.BeginWrite()
	var epoch uint64
	if f, err := os.Open(snapPath); err == nil {
		snap, rerr := DecodeSnapshot(f)
		f.Close()
		if rerr == nil {
			rerr = snap.RestoreTo(tx)
		}
		if rerr != nil {
			return nil, nil, fmt.Errorf("persist: reading %s: %w", snapPath, rerr)
		}
		epoch = snap.Epoch
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	if err := completeRotation(walPath, newPath, epoch); err != nil {
		return nil, nil, err
	}
	applied, err := replayWAL(walPath, tx, epoch)
	if err != nil {
		return nil, nil, err
	}
	w, err := openWAL(walPath, opts.Fsync)
	if err != nil {
		return nil, nil, err
	}
	reader, err := os.Open(walPath)
	if err != nil {
		w.close()
		return nil, nil, err
	}
	tx.Commit()
	return db, &Manager{
		dir: opts.Dir, fsync: opts.Fsync, w: w, reader: reader,
		committed: w.size, records: int64(applied), epoch: epoch,
	}, nil
}

// Close flushes and closes the WAL.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.w.close()
	if cerr := m.reader.Close(); err == nil {
		err = cerr
	}
	return err
}

// WALSize returns the current WAL length in bytes (committed plus
// buffered) — the checkpoint trigger metric. A WAL holding no mutations
// is empty; the first commit writes the leading epoch record.
func (m *Manager) WALSize() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.w.size
}

// Committed returns the flushed, frame-aligned WAL prefix length and the
// mutation records inside it — the position a fully caught-up follower
// would hold (the GET /replication primary-side reference point).
func (m *Manager) Committed() (bytes, records int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.committed, m.records
}

// Epoch returns the current checkpoint epoch.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// LogInsert records appended tuples (in schema attribute order).
func (m *Manager) LogInsert(table string, width int, rows [][]storage.Word) error {
	return m.LogInsertWords(table, width, storage.Flatten(rows))
}

// LogInsertWords records appended tuples laid out row-major in schema
// attribute order (len(words) a multiple of width), the form of a
// bulk-load batch and of storage.Relation.AppendRows.
func (m *Manager) LogInsertWords(table string, width int, words []storage.Word) error {
	return m.commit(walInsertBody(table, width, words))
}

// LogCreateTable records a table creation with its current content —
// normally logged right after the table is created, while it is empty or
// holds only its initial load.
func (m *Manager) LogCreateTable(c *plan.Catalog, table string) error {
	return m.commit(walCreateTableBody(SnapTable(c, table)))
}

// LogRelayout records an optimizer re-layout decision.
func (m *Manager) LogRelayout(table string, l storage.Layout) error {
	return m.commit(walRelayoutBody(table, l))
}

// LogDictAppend records dictionary growth (new string values appended by
// a bulk load, in code order). Log it before the insert whose rows carry
// the new codes.
func (m *Manager) LogDictAppend(table string, attr int, values []string) error {
	return m.commit(walDictAppendBody(table, attr, values))
}

// commit appends one record and makes it durable before returning. A
// WAL that was just created, or rotated in empty, receives its leading
// epoch record in the same commit — lazily, so an earlier failed stamp
// attempt can never leave mutation records in a headerless log.
func (m *Manager) commit(body []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := faultinject.Hit("persist/wal-commit"); err != nil {
		return err
	}
	before := m.w.size
	if !m.w.stamped {
		if err := m.w.append(walEpochBody(m.epoch)); err != nil {
			return err
		}
		m.w.stamped = true
	}
	if err := m.w.append(body); err != nil {
		return err
	}
	start := time.Now()
	if err := m.w.commit(); err != nil {
		return err
	}
	if m.fsyncHist != nil && m.fsync {
		m.fsyncHist.ObserveSince(start)
	}
	if m.walAppended != nil {
		m.walAppended.Add(m.w.size - before)
	}
	m.committed = m.w.size
	m.records++
	m.stampSeq++
	m.pushStampLocked(commitStamp{
		end:   m.committed,
		seq:   m.stampSeq,
		nanos: time.Now().UnixNano(),
		qid:   m.tag,
	})
	m.tag = ""
	m.wakeLocked()
	return nil
}

// Tag attaches a correlation id to the next commit: the service's write
// paths call it (under their commit mutex) right before the LogX call
// it describes, so the stamp — and through TailRead every follower —
// learns which request produced the bytes.
func (m *Manager) Tag(qid string) {
	if qid == "" {
		return
	}
	m.mu.Lock()
	m.tag = qid
	m.mu.Unlock()
}

// LastCommit reports the newest commit stamp: its sequence number, its
// wall-clock unix-nanosecond time and its correlation id. All zero when
// nothing has committed since open/rotation.
func (m *Manager) LastCommit() (seq, nanos int64, qid string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stampN == 0 {
		return 0, 0, ""
	}
	st := m.stamps[(m.stampPos-1+len(m.stamps))%len(m.stamps)]
	return st.seq, st.nanos, st.qid
}

func (m *Manager) pushStampLocked(st commitStamp) {
	if m.stamps == nil {
		m.stamps = make([]commitStamp, stampRingSize)
	}
	m.stamps[m.stampPos] = st
	m.stampPos = (m.stampPos + 1) % len(m.stamps)
	if m.stampN < len(m.stamps) {
		m.stampN++
	}
}

// stampAtOrBeforeLocked returns the newest stamp whose committed end is
// at or below end — the commit a follower holding exactly end bytes has
// fully applied. ok is false when the ring holds no such stamp (the
// follower is further behind than the ring remembers, or nothing has
// committed yet).
func (m *Manager) stampAtOrBeforeLocked(end int64) (commitStamp, bool) {
	for i := 0; i < m.stampN; i++ {
		st := m.stamps[(m.stampPos-1-i+len(m.stamps))%len(m.stamps)]
		if st.end <= end {
			return st, true
		}
	}
	return commitStamp{}, false
}

// wakeLocked releases every goroutine parked on Changed().
func (m *Manager) wakeLocked() {
	if m.notify != nil {
		close(m.notify)
		m.notify = nil
	}
}

// CheckpointInfo reports what a checkpoint did.
type CheckpointInfo struct {
	SnapshotBytes int64 // size of the written snapshot
	WALBytes      int64 // WAL bytes made redundant and dropped
}

// BeginCheckpoint returns the committed WAL position the checkpoint
// covers. The caller must pin the catalog snapshot it will serialize
// while holding the same exclusion it applies to loggers (the service's
// commit mutex), so the returned position and the pinned state agree:
// everything at or below it is in the snapshot, everything after it is
// not.
func (m *Manager) BeginCheckpoint() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.committed
}

// CheckpointFrom serializes cat — a catalog pinned at WAL position pos —
// with no lock held, then rotates the WAL while preserving every record
// committed after pos as the suffix of the next epoch's log.
//
// Crash safety: the snapshot is staged to a temp file and the successor
// WAL to wal.new, both fsync'd before either rename (in fsync mode, with
// directory fsyncs after each). The snapshot rename happens first; Open
// repairs every interruption: before the snapshot rename the old
// snapshot + old WAL are intact (a stale wal.new is removed), between
// the renames the new snapshot pairs with wal.new (Open finishes the
// rotation), and after both the state is simply the result.
func (m *Manager) CheckpointFrom(cat *plan.Catalog, pos int64) (CheckpointInfo, error) {
	if err := faultinject.Hit("persist/checkpoint"); err != nil {
		return CheckpointInfo{}, err
	}
	next := m.Epoch() + 1
	tmp, err := os.CreateTemp(m.dir, snapshotFile+".tmp-*")
	if err != nil {
		return CheckpointInfo{}, err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	n, err := WriteCatalogSnapshot(tmp, cat, next)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("persist: writing snapshot: %w", err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	suffix, records, err := m.suffixRecordsLocked(pos)
	if err != nil {
		return CheckpointInfo{}, err
	}
	newPath := filepath.Join(m.dir, walNewFile)
	if err := m.stageSuccessorWAL(newPath, next, suffix); err != nil {
		return CheckpointInfo{}, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(m.dir, snapshotFile)); err != nil {
		return CheckpointInfo{}, err
	}
	if m.fsync {
		// Persist the snapshot rename's directory entry before publishing
		// the successor WAL, or a power loss could pair the old snapshot
		// with the new (shorter) log.
		if err := syncDir(m.dir); err != nil {
			return CheckpointInfo{}, fmt.Errorf("persist: syncing data dir: %w", err)
		}
	}
	if err := os.Rename(newPath, filepath.Join(m.dir, walFile)); err != nil {
		return CheckpointInfo{}, err
	}
	if m.fsync {
		if err := syncDir(m.dir); err != nil {
			return CheckpointInfo{}, fmt.Errorf("persist: syncing data dir: %w", err)
		}
	}
	// The renames changed the wal.log inode: reopen both file handles.
	if err := m.reopenWALLocked(); err != nil {
		return CheckpointInfo{}, err
	}
	m.epoch = next
	m.committed = m.w.size
	m.records = records
	// Offsets restarted with the rotated log: the old stamps' ends no
	// longer describe it. Followers see zero stamps (no lag observation)
	// until the next commit — better than a wrong mapping.
	m.stampN, m.stampPos = 0, 0
	// Wake parked tails so followers of the rotated epoch learn about it
	// immediately instead of at their poll timeout.
	m.wakeLocked()
	return CheckpointInfo{SnapshotBytes: n, WALBytes: pos}, nil
}

// suffixRecordsLocked reads the committed WAL bytes after pos and returns
// the mutation-record bodies they frame (skipping the leading epoch
// record when pos is 0) plus their count.
func (m *Manager) suffixRecordsLocked(pos int64) ([][]byte, int64, error) {
	if pos < 0 || pos > m.committed {
		return nil, 0, fmt.Errorf("persist: checkpoint position %d outside committed prefix %d", pos, m.committed)
	}
	if pos == m.committed {
		return nil, 0, nil
	}
	buf := make([]byte, m.committed-pos)
	if _, err := m.reader.ReadAt(buf, pos); err != nil {
		return nil, 0, fmt.Errorf("persist: reading WAL suffix at offset %d: %w", pos, err)
	}
	var bodies [][]byte
	var count int64
	off := 0
	for off < len(buf) {
		body, fn, err := ParseFrame(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		if fn == 0 {
			return nil, 0, fmt.Errorf("%w: torn frame inside committed prefix at offset %d", ErrWALCorrupt, pos+int64(off))
		}
		if _, isEpoch := EpochRecord(body); !isEpoch {
			bodies = append(bodies, body)
			count++
		}
		off += fn
	}
	return bodies, count, nil
}

// stageSuccessorWAL writes the next epoch's WAL to path: empty when there
// is no suffix (the epoch header is stamped lazily by the first commit,
// like any fresh WAL), otherwise the epoch record followed by the suffix
// bodies, re-framed.
func (m *Manager) stageSuccessorWAL(path string, epoch uint64, bodies [][]byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var werr error
	if len(bodies) > 0 {
		buf := appendFrame(nil, walEpochBody(epoch))
		for _, body := range bodies {
			buf = appendFrame(buf, body)
		}
		_, werr = f.Write(buf)
	}
	if werr == nil && m.fsync {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(path)
		return fmt.Errorf("persist: staging successor WAL: %w", werr)
	}
	return nil
}

// reopenWALLocked reopens the append and read sides of wal.log after a
// rotation replaced the inode.
func (m *Manager) reopenWALLocked() error {
	walPath := filepath.Join(m.dir, walFile)
	if err := m.w.close(); err != nil {
		return fmt.Errorf("persist: closing rotated WAL: %w", err)
	}
	w, err := openWAL(walPath, m.fsync)
	if err != nil {
		return fmt.Errorf("persist: reopening WAL: %w", err)
	}
	reader, err := os.Open(walPath)
	if err != nil {
		w.close()
		return fmt.Errorf("persist: reopening WAL reader: %w", err)
	}
	m.reader.Close()
	m.w, m.reader = w, reader
	return nil
}

// completeRotation repairs a checkpoint that crashed between staging
// wal.new and renaming it over wal.log. If wal.log already continues the
// restored snapshot (same epoch), the sidecar is a leftover from a
// checkpoint that never published its snapshot — remove it. Otherwise,
// if the sidecar matches the snapshot epoch (or is empty, the staged
// form of a suffix-free rotation), the snapshot rename did happen and
// the sidecar is the correct log — finish the rename. Anything else is a
// stray file; remove it and let replayWAL's epoch rules decide.
func completeRotation(walPath, newPath string, snapEpoch uint64) error {
	if _, err := os.Stat(newPath); errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	logEpoch, logOK, err := firstEpoch(walPath)
	if err != nil {
		return err
	}
	if logOK && logEpoch == snapEpoch {
		return os.Remove(newPath)
	}
	newEpoch, newOK, err := firstEpoch(newPath)
	if err != nil {
		return err
	}
	if !newOK || newEpoch == snapEpoch {
		return os.Rename(newPath, walPath)
	}
	return os.Remove(newPath)
}

// SnapshotPath returns the path of the checkpoint snapshot inside the
// data directory (the file may not exist before the first checkpoint).
func (m *Manager) SnapshotPath() string {
	return filepath.Join(m.dir, snapshotFile)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
