package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"chipletqc/internal/experiment"
)

// Temp files staged by writeAtomic (for Put, the manifest snapshot and
// Backup/Restore copies) are dotfiles matching ".<file>.tmp-*" beside
// the file they replace; a writer killed between CreateTemp and Rename
// leaves one behind. Open sweeps temps old enough that no live writer
// can own them; Prune sweeps with a much shorter grace period (it is an
// explicit admin action).
const (
	tempMarker        = ".tmp-"
	openTempSweepAge  = time.Hour
	pruneTempSweepAge = time.Minute
)

// recordExt is the record file extension; a record lives at
// <dir>/<Key(name, fingerprint)><recordExt>.
const recordExt = ".json"

// FS is the filesystem Store backend rooted at one directory: one
// transparent JSON file per record, written atomically (temp file +
// rename) so an interrupted process never leaves a half-written record
// under a valid key, plus a manifest index (see manifest.go) so Has,
// Keys, and Len are in-memory map operations rather than per-key
// filesystem stats.
//
// Methods are safe for concurrent use by multiple goroutines and — via
// the atomic rename in Put and append-only journaling — by multiple
// processes sharding one campaign into the same directory. The index
// is per-process: a record a sibling process Put after this store
// opened is still found (Get and Has fall through to the filesystem on
// an index miss, which is what makes a shared directory correct), but
// it only appears in Keys/Len after Refresh or a reopen.
type FS struct {
	dir string

	mu      sync.Mutex
	idx     map[string]*recordMeta
	journal *os.File
	closed  bool
}

// FS implements Store.
var _ Store = (*FS)(nil)

// Open returns a filesystem store rooted at dir, creating the
// directory if needed. It sweeps stale Put temp files, then builds the
// record index from the manifest snapshot + journal reconciled against
// one directory scan — the only full scan a store's lifetime needs.
func Open(dir string) (*FS, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &FS{dir: dir, idx: loadManifest(dir)}
	s.sweepTemps(openTempSweepAge)
	if err := s.reconcileLocked(); err != nil {
		return nil, err
	}
	j, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.journal = j
	return s, nil
}

// Dir returns the store's root directory.
func (s *FS) Dir() string { return s.dir }

// path returns the record file for a key.
func (s *FS) path(name, fingerprint string) string {
	return filepath.Join(s.dir, Key(name, fingerprint)+recordExt)
}

// Put persists the artifact under its (Name, Fingerprint) key,
// overwriting any existing record, and returns the record path. The
// write is atomic: the record is staged in a temp file and renamed into
// place, so concurrent readers and sharded sibling processes never
// observe a partial record. The manifest index is maintained with one
// O(1) journal append.
func (s *FS) Put(a experiment.Artifact) (string, error) {
	if err := validKey(a.Name, a.Fingerprint); err != nil {
		return "", err
	}
	// Check closed before staging any bytes: a Put racing Close (a
	// drained daemon, a test teardown) should fail cleanly up front
	// rather than write a record file the flushed manifest never saw.
	// The index update below re-checks under the same lock Close takes,
	// so a Put that slips past this check still can't corrupt the index.
	if s.isClosed() {
		return "", errClosed
	}
	dst := s.path(a.Name, a.Fingerprint)
	size, err := writeAtomic(dst, a.WriteJSON)
	if err != nil {
		return "", fmt.Errorf("store: writing %s: %w", dst, err)
	}

	key := Key(a.Name, a.Fingerprint)
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errClosed
	}
	m := s.idx[key]
	if m == nil {
		m = &recordMeta{}
		s.idx[key] = m
	}
	m.Bytes, m.PutNS = size, now
	s.appendJournalLocked(journalEntry{Op: "put", Key: key, Bytes: size, NS: now})
	return dst, nil
}

// Get loads the artifact stored under (name, fingerprint). A missing
// record returns ok == false with a nil error; an unreadable,
// truncated, or mismatched record returns an error naming the
// offending file and how to recover (delete it to force a re-run).
// Get reads through the filesystem rather than the index, so records
// written by sharded sibling processes are always found.
func (s *FS) Get(name, fingerprint string) (a experiment.Artifact, ok bool, err error) {
	if err := validKey(name, fingerprint); err != nil {
		return experiment.Artifact{}, false, err
	}
	if s.isClosed() {
		return experiment.Artifact{}, false, errClosed
	}
	path := s.path(name, fingerprint)
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.dropIndexEntry(Key(name, fingerprint))
		return experiment.Artifact{}, false, nil
	}
	if err != nil {
		return experiment.Artifact{}, false, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(&a); err != nil {
		return experiment.Artifact{}, false,
			fmt.Errorf("store: corrupt record %s: %w (delete the file to force a re-run)", path, err)
	}
	if a.Name != name || a.Fingerprint != fingerprint {
		return experiment.Artifact{}, false,
			fmt.Errorf("store: record %s identifies as (%s, %s), expected (%s, %s) — delete the file to force a re-run",
				path, a.Name, a.Fingerprint, name, fingerprint)
	}
	s.touch(Key(name, fingerprint))
	return a, true, nil
}

// Has reports whether a record exists under (name, fingerprint)
// without reading it. A corrupt record still counts as present — Get
// is the arbiter of validity. Keys the store has indexed answer from
// the manifest in O(1); only a key this process has never seen falls
// through to a single stat (catching sibling-process writes), whose
// result is folded into the index.
func (s *FS) Has(name, fingerprint string) bool {
	if validKey(name, fingerprint) != nil {
		return false
	}
	key := Key(name, fingerprint)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	_, ok := s.idx[key]
	s.mu.Unlock()
	if ok {
		return true
	}
	info, err := os.Stat(s.path(name, fingerprint))
	if err != nil {
		return false
	}
	s.mu.Lock()
	if !s.closed && s.idx[key] == nil {
		s.idx[key] = &recordMeta{Bytes: info.Size(), PutNS: info.ModTime().UnixNano()}
	}
	s.mu.Unlock()
	return true
}

// Keys returns every indexed record key, sorted. The index covers
// everything present when the store opened plus this process's writes;
// call Refresh first to fold in records sharded sibling processes
// added since.
func (s *FS) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	keys := make([]string, 0, len(s.idx))
	for k := range s.idx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// Len returns the number of indexed records.
func (s *FS) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	return len(s.idx), nil
}

// Refresh rescans the store directory once and reconciles the index
// with it: records added by sibling processes appear, records deleted
// behind the store's back vanish. Admin operations (Verify, GC, Prune,
// Backup) refresh implicitly so they always act on the directory's
// true contents.
func (s *FS) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	return s.reconcileLocked()
}

// Close flushes the index to the manifest snapshot, truncates the
// journal it subsumes, and releases the store. Close is idempotent;
// operations on a closed store fail with a clear error.
func (s *FS) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := writeManifest(s.dir, s.idx)
	if err == nil {
		err = s.journal.Truncate(0)
	}
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	s.journal = nil
	return err
}

// isClosed reports the closed flag under the lock.
func (s *FS) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// dropIndexEntry removes a stale index entry whose record file is gone.
func (s *FS) dropIndexEntry(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		delete(s.idx, key)
	}
}

// touch records a read for LRU eviction. Read times live in memory and
// reach the manifest snapshot at Close (or GC/Prune); losing them to a
// crash only weakens eviction ordering, never correctness.
func (s *FS) touch(key string) {
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	m := s.idx[key]
	if m == nil {
		// A sibling process wrote this record after we opened; index it
		// so the next Has/Keys sees it without touching the filesystem.
		m = &recordMeta{PutNS: now}
		s.idx[key] = m
	}
	if now > m.ReadNS {
		m.ReadNS = now
	}
}

// appendJournalLocked writes one journal line; callers hold mu. A
// failed append degrades the advisory index (reconciled from record
// files on the next Open), so it is deliberately not fatal to the
// operation that triggered it.
func (s *FS) appendJournalLocked(e journalEntry) {
	if s.journal == nil {
		return
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	s.journal.Write(append(line, '\n'))
}

// reconcileLocked folds one directory scan into the index: every valid
// record file present gains an entry (sized and dated from the file
// when the manifest knew nothing), and entries whose files are gone
// are dropped. Callers hold mu (or own s exclusively during Open).
func (s *FS) reconcileLocked() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		key, ok := recordKeyForFile(e)
		if !ok {
			continue
		}
		seen[key] = true
		if s.idx[key] != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // deleted mid-scan; the index simply never learns it
		}
		s.idx[key] = &recordMeta{Bytes: info.Size(), PutNS: info.ModTime().UnixNano()}
	}
	for key := range s.idx {
		if !seen[key] {
			delete(s.idx, key)
		}
	}
	return nil
}

// recordKeyForFile maps a directory entry to its record key, rejecting
// directories, dotfiles (temp staging), the manifest files, non-JSON
// strays, and names that do not parse as keys.
func recordKeyForFile(e os.DirEntry) (string, bool) {
	name := e.Name()
	if e.IsDir() || strings.HasPrefix(name, ".") ||
		name == manifestName || name == journalName || !strings.HasSuffix(name, recordExt) {
		return "", false
	}
	key := strings.TrimSuffix(name, recordExt)
	if _, _, err := ParseKey(key); err != nil {
		return "", false
	}
	return key, true
}

// writeAtomic replaces dst with what write produces, staged in a
// dotfile temp beside it (".<file>.tmp-*") and renamed into place, so
// readers never observe a partial file. It returns the bytes written.
// A failed write leaves dst untouched and removes the temp.
func writeAtomic(dst string, write func(io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(dst), "."+filepath.Base(dst)+tempMarker+"*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = write(tmp)
	var size int64
	if err == nil {
		size, err = tmp.Seek(0, io.SeekCurrent)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	// CreateTemp's 0600 would lock out other users sharing the store
	// directory (sharded campaigns across accounts); store files are
	// world-readable like any build artifact.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return 0, err
	}
	return size, nil
}

// sweepTemps removes writeAtomic temps older than olderThan, returning
// how many it removed. Temps are dotfiles carrying the tempMarker; a
// live writer's temp is seconds old, so an old one can only be the
// debris of a killed process.
func (s *FS) sweepTemps(olderThan time.Duration) int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-olderThan)
	removed := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, ".") || !strings.Contains(name, tempMarker) {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(s.dir, name)) == nil {
			removed++
		}
	}
	return removed
}
