package persist

// The WAL backend: an append-only JSON-line log (wal.log) plus an
// atomically replaced snapshot file (snapshot.json) in one data
// directory.
//
// Durability is group-committed: Append assigns the LSN and buffers
// the record under a mutex — it never touches the filesystem — and a
// single committer goroutine drains whatever accumulated while its
// previous write+fsync was in flight, so one fsync amortizes over the
// whole batch and the deploy hot path never waits on it. Flush blocks
// until everything appended before the call is fsynced.
//
// Snapshot writes the compacted state via tmp+rename (readers never
// see a torn snapshot), then rotates the log the same way: a new
// wal.log containing only the records beyond the snapshot's LSN,
// including any still-unsynced buffered records — rotation IS their
// durability, so the pending batch is retired in the same step.
// Recovery (Open + Load) reads the snapshot if present and replays the
// log's records beyond its LSN; a torn final line (the write the crash
// interrupted) is discarded, everything before it survives. The torn
// bytes themselves are truncated away before the log is reopened for
// append — left in place they would fuse with the next append into one
// unparsable line, and the following recovery would stop there and
// silently drop every record written after the crash.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

const (
	walFile  = "wal.log"
	snapFile = "snapshot.json"
)

// WAL is the on-disk Store. Safe for concurrent use.
type WAL struct {
	dir string

	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	// nextLSN is the last assigned LSN; committed the last durable one.
	nextLSN   uint64
	committed uint64
	// pending holds appended-not-yet-written records; tail every record
	// beyond the last snapshot (pending is always a suffix of tail).
	pending []Record
	tail    []Record
	// base is the snapshot decoded at Open, kept for Load only until
	// the store is first written (Append or Snapshot): a Load after that
	// reads the snapshot file again, so a running store keeps no second
	// copy of the whole state. snapLSN is the last snapshot's covered
	// position.
	base    *State
	snapLSN uint64
	// snapBytes is the last snapshot's size: the next one encodes into a
	// buffer that large, not one grown by doubling from empty. Only
	// OpenWAL and Snapshot touch it, and callers serialize snapshots.
	snapBytes int
	// inflight marks the committer writing outside the lock; paused
	// parks it while Snapshot rotates the files.
	inflight bool
	paused   bool
	closed   bool
	err      error // first write/sync error, sticky
	done     chan struct{}
}

// OpenWAL opens (creating if needed) the data directory and recovers
// its snapshot and log into memory, decoding the two files
// concurrently. The returned store is ready for Load and for appends.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: data dir: %w", err)
	}
	w := &WAL{dir: dir, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)

	// The two files decode side by side. A snapshot error wins over a
	// log error.
	walPath := filepath.Join(dir, walFile)
	var (
		recs    []Record
		durable int64
		logErr  error
	)
	logRead := make(chan struct{})
	go func() {
		recs, durable, logErr = readLog(walPath)
		close(logRead)
	}()
	st, size, err := readSnapshot(dir)
	<-logRead
	if err != nil {
		return nil, err
	}
	if logErr != nil {
		return nil, logErr
	}
	if st != nil {
		w.base = st
		w.snapBytes = size
		w.snapLSN = st.LSN
		w.nextLSN = st.LSN
	}

	w.tail = recs[:0]
	for _, r := range recs {
		if r.LSN <= w.snapLSN {
			continue // pre-rotation leftovers the snapshot already covers
		}
		w.tail = append(w.tail, r)
		if r.LSN > w.nextLSN {
			w.nextLSN = r.LSN
		}
	}
	w.committed = w.nextLSN

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	// Cut off a crash-torn tail before appending: new records written
	// after the torn bytes would concatenate into one unparsable line,
	// and the next recovery would stop there — dropping records a Flush
	// had already acknowledged. Truncation makes the discard permanent
	// and the file append-clean again.
	if fi, serr := f.Stat(); serr == nil && fi.Size() > durable {
		if err := f.Truncate(durable); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: truncate torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: sync truncated wal: %w", err)
		}
	}
	w.f = f
	go w.commitLoop()
	return w, nil
}

// readSnapshot decodes the snapshot file and returns it with its size,
// or nil when there is none. A snapshot that does not decode is an
// error: silently dropping a whole snapshot's worth of state is worse
// than refusing to open.
func readSnapshot(dir string) (*State, int, error) {
	buf, err := os.ReadFile(filepath.Join(dir, snapFile))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("persist: read snapshot: %w", err)
	}
	st := &State{}
	if err := decodeState(buf, st); err != nil {
		return nil, 0, fmt.Errorf("persist: corrupt snapshot: %w", err)
	}
	return st, len(buf), nil
}

// readLog parses the JSON-line log, stopping at the first unparsable
// or unterminated line — a torn tail write from a crash loses only
// that record. It also returns the byte offset just past the last good
// line, so the caller can truncate the torn bytes away before
// appending. The file is read once and its lines decoded in place;
// lines are unbounded (a record embeds a full workload snapshot, so no
// fixed cap can be assumed on both the write and the recovery path).
func readLog(path string) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("persist: read wal: %w", err)
	}
	recs := make([]Record, 0, bytes.Count(data, []byte{'\n'}))
	durable := 0 // offset just past the last fully-parsed line
	for {
		n := bytes.IndexByte(data[durable:], '\n')
		if n < 0 {
			// A final line without its newline: the batch write (which
			// ends every record with '\n' before the fsync) was torn
			// mid-record. Discard it even if the bytes so far happen to
			// parse — appending after them would fuse two records.
			return recs, int64(durable), nil
		}
		line := bytes.TrimSpace(data[durable : durable+n])
		if len(line) > 0 {
			var r Record
			if err := decodeRecord(line, &r); err != nil {
				// Torn or corrupt line: everything after it is
				// unreachable on replay, so the durable prefix ends here.
				return recs, int64(durable), nil
			}
			recs = append(recs, r)
		}
		durable += n + 1
	}
}

// Append assigns the next LSN and buffers the record for the group
// committer. It performs no I/O.
func (w *WAL) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	w.base = nil
	w.nextLSN++
	rec.LSN = w.nextLSN
	w.pending = append(w.pending, rec)
	w.tail = append(w.tail, rec)
	w.cond.Broadcast()
	return nil
}

// commitLoop is the group committer: each iteration takes everything
// buffered since the last write and retires it with one write+fsync,
// encoding every batch into the same buffer.
func (w *WAL) commitLoop() {
	var buf []byte
	w.mu.Lock()
	for {
		for (len(w.pending) == 0 || w.paused) && !w.closed {
			w.cond.Wait()
		}
		if w.closed && (len(w.pending) == 0 || w.err != nil) {
			break
		}
		if w.paused && !w.closed {
			continue
		}
		batch := w.pending
		w.pending = nil
		f := w.f
		w.inflight = true
		w.mu.Unlock()

		var err error
		buf, err = writeBatch(f, batch, buf[:0])

		w.mu.Lock()
		w.inflight = false
		if err != nil && w.err == nil {
			w.err = err
		}
		if last := batch[len(batch)-1].LSN; last > w.committed {
			w.committed = last
		}
		w.cond.Broadcast()
	}
	w.mu.Unlock()
	close(w.done)
}

// writeBatch encodes the batch onto buf, writes it, and fsyncs. It
// returns the buffer for the next batch.
func writeBatch(f *os.File, batch []Record, buf []byte) ([]byte, error) {
	buf, err := appendRecords(buf, batch)
	if err != nil {
		return buf, err
	}
	if _, err := f.Write(buf); err != nil {
		return buf, fmt.Errorf("persist: write wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		return buf, fmt.Errorf("persist: sync wal: %w", err)
	}
	return buf, nil
}

// appendRecords appends the WAL lines of recs to dst.
func appendRecords(dst []byte, recs []Record) ([]byte, error) {
	for i := range recs {
		var err error
		if dst, err = appendRecord(dst, &recs[i]); err != nil {
			return dst, fmt.Errorf("persist: encode record: %w", err)
		}
	}
	return dst, nil
}

// Flush blocks until every record appended before the call is durable
// (or the store failed/closed), returning the sticky write error.
func (w *WAL) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	target := w.nextLSN
	for w.committed < target && w.err == nil {
		if w.closed && len(w.pending) == 0 && !w.inflight {
			break
		}
		w.cond.Wait()
	}
	return w.err
}

// LastLSN reports the newest assigned LSN.
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// Snapshot persists st atomically and compacts the log down to the
// records beyond st.LSN. The snapshot file — the expensive encode and
// fsync, proportional to the whole state — is written BEFORE the store
// mutex is taken: its contents do not depend on WAL internals, and the
// crash ordering is safe (a snapshot that lands without its log
// rotation just means recovery replays a longer, idempotent tail).
// Appends therefore only block for the short log rotation, not the
// state-sized write. Callers serialize snapshots (the platform's
// snapMu); concurrent Snapshot calls are not supported.
func (w *WAL) Snapshot(st *State) error {
	buf, err := appendState(make([]byte, 0, w.snapBytes), st)
	if err != nil {
		return fmt.Errorf("persist: encode snapshot: %w", err)
	}
	w.snapBytes = len(buf)
	if err := writeFileAtomic(filepath.Join(w.dir, snapFile), buf); err != nil {
		return err
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	w.paused = true
	defer func() {
		w.paused = false
		w.cond.Broadcast()
	}()
	for w.inflight {
		w.cond.Wait()
	}
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}

	// Rotate the log: keep only records beyond the snapshot. The kept
	// set includes any pending records — once the rotated file is
	// synced and renamed they are durable, so the pending batch is
	// retired here instead of by the committer.
	keep := make([]Record, 0, len(w.tail))
	for _, r := range w.tail {
		if r.LSN > st.LSN {
			keep = append(keep, r)
		}
	}
	logBuf, err := appendRecords(nil, keep)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(w.dir, walFile), logBuf); err != nil {
		return err
	}
	old := w.f
	f, err := os.OpenFile(filepath.Join(w.dir, walFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.err = fmt.Errorf("persist: reopen wal: %w", err)
		return w.err
	}
	w.f = f
	_ = old.Close()
	w.tail = keep
	w.pending = nil
	w.committed = w.nextLSN
	w.base = nil
	w.snapLSN = st.LSN
	return nil
}

// writeFileAtomic writes data via tmp + fsync + rename + directory
// fsync. The final sync is what makes the rename itself durable: the
// snapshot's rename must be on disk before the log rotation that
// depends on it, and without a dir fsync a power cut may persist the
// renames in either order — a rotated (compacted) log next to the OLD
// snapshot loses every record the new snapshot covered.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: write %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("persist: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: sync %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: close %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: rename %s: %w", filepath.Base(path), err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename inside it survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: open dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("persist: sync dir %s: %w", dir, err)
	}
	return d.Close()
}

// Load returns the recovered state: the last snapshot with the log
// tail replayed on top, or nil when the store holds nothing yet. Until
// the store is first written it replays onto the snapshot OpenWAL
// decoded; after that it reads the file again. Either way the result
// shares no rows with the store: it belongs to the caller, and the
// cluster that imports it keeps its workload rows.
func (w *WAL) Load() (*State, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	base := w.base
	if base == nil {
		var err error
		if base, _, err = readSnapshot(w.dir); err != nil {
			return nil, err
		}
	}
	if base == nil && len(w.tail) == 0 {
		return nil, nil
	}
	if base == nil {
		base = &State{}
	}
	return apply(base, w.tail), nil
}

// Close flushes the pending batch and releases the log file. It does
// NOT snapshot — the platform owns that decision (graceful shutdown
// snapshots; a simulated crash closes flush-only). Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return nil
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done

	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.err
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}
