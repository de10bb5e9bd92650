package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// VerifyIssue is one record Verify could not vouch for. Location is
// backend-specific (the record file path on the filesystem backend) so
// operators know exactly what to delete, restore, or re-run.
type VerifyIssue struct {
	Key      string `json:"key"`
	Location string `json:"location,omitempty"`
	Detail   string `json:"detail"`
}

// VerifyReport summarises one Verify pass.
type VerifyReport struct {
	Checked int           `json:"checked"`
	Issues  []VerifyIssue `json:"issues,omitempty"`
}

// OK reports a clean verification.
func (r VerifyReport) OK() bool { return len(r.Issues) == 0 }

// Verify audits every record of any backend: each key must parse back
// into (name, fingerprint), and the stored record must decode and
// identify as exactly that key (the self-identifying artifact makes
// this cheap — no payload recomputation). It works on the Store
// interface, so a third-party backend gets auditing for free; on the
// filesystem backend it refreshes the index first and additionally
// flags stray .json files squatting in the store directory.
func Verify(s Store) (VerifyReport, error) {
	var rep VerifyReport
	fsStore, isFS := s.(*FS)
	if isFS {
		if err := fsStore.Refresh(); err != nil {
			return rep, err
		}
	}
	keys, err := s.Keys()
	if err != nil {
		return rep, err
	}
	for _, key := range keys {
		rep.Checked++
		name, fingerprint, err := ParseKey(key)
		if err != nil {
			rep.Issues = append(rep.Issues, VerifyIssue{Key: key, Detail: err.Error()})
			continue
		}
		location := ""
		if isFS {
			location = fsStore.path(name, fingerprint)
		}
		if _, ok, err := s.Get(name, fingerprint); err != nil {
			rep.Issues = append(rep.Issues, VerifyIssue{Key: key, Location: location, Detail: err.Error()})
		} else if !ok {
			rep.Issues = append(rep.Issues, VerifyIssue{Key: key, Location: location,
				Detail: fmt.Sprintf("store: record %s vanished during verification", key)})
		}
	}
	if isFS {
		strays, err := fsStore.strayFiles()
		if err != nil {
			return rep, err
		}
		for _, path := range strays {
			rep.Issues = append(rep.Issues, VerifyIssue{Location: path,
				Detail: fmt.Sprintf("store: stray file %s does not parse as a record (prune removes it)", path)})
		}
	}
	return rep, nil
}

// checkRecordFile re-decodes one record file and cross-checks its
// self-described identity against the expected key components.
func checkRecordFile(path, name, fingerprint string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var a struct {
		Name        string `json:"name"`
		Fingerprint string `json:"config_fingerprint"`
	}
	if err := json.NewDecoder(f).Decode(&a); err != nil {
		return fmt.Errorf("store: corrupt record %s: %w", path, err)
	}
	if a.Name != name || a.Fingerprint != fingerprint {
		return fmt.Errorf("store: record %s identifies as (%s, %s), expected (%s, %s)",
			path, a.Name, a.Fingerprint, name, fingerprint)
	}
	return nil
}

// strayFiles lists .json files in the store directory that are not
// records, the manifest, or staging temps.
func (s *FS) strayFiles() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var strays []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == manifestName || name == journalName ||
			strings.HasPrefix(name, ".") || !strings.HasSuffix(name, recordExt) {
			continue
		}
		if _, ok := recordKeyForFile(e); !ok {
			strays = append(strays, filepath.Join(s.dir, name))
		}
	}
	sort.Strings(strays)
	return strays, nil
}

// Backup copies every record of s into dstDir, creating it if needed,
// and returns the record count. On the filesystem backend records are
// copied byte-for-byte (a restored store is byte-identical to the
// original) and the manifest snapshot — read times and pins included —
// is written alongside, so the backup directory is itself a complete,
// openable store. Other backends are serialised record by record
// through a fresh filesystem store at dstDir.
func Backup(s Store, dstDir string) (int, error) {
	if fsStore, ok := s.(*FS); ok {
		return fsStore.Backup(dstDir)
	}
	keys, err := s.Keys()
	if err != nil {
		return 0, err
	}
	dst, err := Open(dstDir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, key := range keys {
		name, fingerprint, err := ParseKey(key)
		if err != nil {
			return n, err
		}
		a, ok, err := s.Get(name, fingerprint)
		if err != nil {
			return n, fmt.Errorf("store: backup reading %s: %w", key, err)
		}
		if !ok {
			continue
		}
		if _, err := dst.Put(a); err != nil {
			return n, err
		}
		n++
	}
	return n, dst.Close()
}

// Restore copies every record found in srcDir (a Backup directory, or
// any store directory) into s, overwriting records that already exist
// under the same key, and returns the record count. Records in s that
// the backup does not cover are left alone; a corrupted record is
// healed by the byte-identical backed-up copy landing on top of it.
func Restore(s Store, srcDir string) (int, error) {
	if fsStore, ok := s.(*FS); ok {
		return fsStore.Restore(srcDir)
	}
	src, err := Open(srcDir)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	keys, err := src.Keys()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, key := range keys {
		name, fingerprint, err := ParseKey(key)
		if err != nil {
			return n, err
		}
		a, ok, err := src.Get(name, fingerprint)
		if err != nil {
			return n, fmt.Errorf("store: restore reading %s: %w", key, err)
		}
		if !ok {
			continue
		}
		if _, err := s.Put(a); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Backup is the filesystem fast path of the package-level Backup:
// byte-for-byte record copies plus the manifest snapshot.
func (s *FS) Backup(dstDir string) (int, error) {
	if dstDir == "" {
		return 0, errors.New("store: empty backup directory")
	}
	if filepath.Clean(dstDir) == filepath.Clean(s.dir) {
		return 0, fmt.Errorf("store: backup directory %s is the store itself", dstDir)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	if err := s.reconcileLocked(); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	n := 0
	for key := range s.idx {
		name, fingerprint, err := ParseKey(key)
		if err != nil {
			continue
		}
		if err := copyFileAtomic(s.path(name, fingerprint), filepath.Join(dstDir, key+recordExt)); err != nil {
			return n, fmt.Errorf("store: backing up %s: %w", key, err)
		}
		n++
	}
	if err := writeManifest(dstDir, s.idx); err != nil {
		return n, err
	}
	return n, nil
}

// Restore is the filesystem fast path of the package-level Restore:
// every record file in srcDir is copied byte-for-byte over the store,
// and pins recorded in the backup's manifest are re-applied.
func (s *FS) Restore(srcDir string) (int, error) {
	if filepath.Clean(srcDir) == filepath.Clean(s.dir) {
		return 0, fmt.Errorf("store: restore source %s is the store itself", srcDir)
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	backed := loadManifest(srcDir)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	n := 0
	for _, e := range entries {
		key, ok := recordKeyForFile(e)
		if !ok {
			continue
		}
		src := filepath.Join(srcDir, e.Name())
		dst := filepath.Join(s.dir, e.Name())
		if err := copyFileAtomic(src, dst); err != nil {
			return n, fmt.Errorf("store: restoring %s: %w", key, err)
		}
		info, err := os.Stat(dst)
		if err != nil {
			return n, fmt.Errorf("store: %w", err)
		}
		m := &recordMeta{Bytes: info.Size(), PutNS: info.ModTime().UnixNano()}
		if bm := backed[key]; bm != nil {
			m.Pins = append([]string(nil), bm.Pins...)
			m.ReadNS = bm.ReadNS
			if bm.PutNS > 0 {
				m.PutNS = bm.PutNS
			}
		}
		s.idx[key] = m
		s.appendJournalLocked(journalEntry{Op: "put", Key: key, Bytes: m.Bytes, NS: m.PutNS})
		for _, pin := range m.Pins {
			s.appendJournalLocked(journalEntry{Op: "pin", Key: key, Pin: pin})
		}
		n++
	}
	if err := writeManifest(s.dir, s.idx); err != nil {
		return n, err
	}
	return n, nil
}

// copyFileAtomic copies src to dst byte-for-byte through a temp file +
// rename in dst's directory, so readers never observe a partial copy.
func copyFileAtomic(src, dst string) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	_, err = writeAtomic(dst, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
	return err
}
