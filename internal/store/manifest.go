package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The filesystem backend keeps an index of its records so Has, Keys,
// and Len never walk the directory or stat per key. The index lives in
// three places with a strict authority order:
//
//   - The record files themselves are the truth. Everything below is
//     advisory and rebuilt from them on demand.
//   - manifest.json is an atomic snapshot of the index (record sizes,
//     put/read times, pins), rewritten on Close, GC, and Prune.
//   - manifest.log is an append-only journal of O(1) entries written
//     on every mutating operation (Put, eviction, pin changes), so a
//     crash between snapshots loses no index metadata. Open replays it
//     over the snapshot and reconciles the result against one
//     directory scan; Close folds it into the snapshot and truncates.
//
// Appends are single small writes to an O_APPEND descriptor, so
// sharded sibling processes journaling into one directory interleave
// whole lines; a torn final line from a crash is skipped on replay.
// The worst a lost journal entry can cost is a rebuild from the record
// files — never a wrong cache hit.
const (
	manifestName = "manifest.json"
	journalName  = "manifest.log"

	manifestVersion = 1
)

// recordMeta is the index entry for one record. Times are UnixNano so
// LRU ordering resolves within one second; PutNS falls back to the
// file mtime when a record was written by a process whose metadata
// never reached the manifest.
type recordMeta struct {
	// Bytes is the encoded record size, the unit GC byte budgets count.
	Bytes int64 `json:"bytes"`
	// PutNS is when the record was written (UnixNano).
	PutNS int64 `json:"put_ns"`
	// ReadNS is when the record was last served by Get (UnixNano);
	// 0 means never read since PutNS.
	ReadNS int64 `json:"read_ns,omitempty"`
	// Pins are the campaign labels protecting the record from GC.
	Pins []string `json:"pins,omitempty"`
}

// lastUse is the LRU ordering key: last read, falling back to the put
// time for never-read records.
func (m *recordMeta) lastUse() int64 {
	if m.ReadNS > m.PutNS {
		return m.ReadNS
	}
	return m.PutNS
}

// pinned reports whether any campaign pin protects the record.
func (m *recordMeta) pinned() bool { return len(m.Pins) > 0 }

// pin adds a pin label once.
func (m *recordMeta) pin(label string) {
	for _, p := range m.Pins {
		if p == label {
			return
		}
	}
	m.Pins = append(m.Pins, label)
	sort.Strings(m.Pins)
}

// unpin removes a pin label if present.
func (m *recordMeta) unpin(label string) {
	for i, p := range m.Pins {
		if p == label {
			m.Pins = append(m.Pins[:i], m.Pins[i+1:]...)
			return
		}
	}
}

// manifest is the on-disk snapshot schema.
type manifest struct {
	Version int                    `json:"version"`
	Records map[string]*recordMeta `json:"records"`
}

// journalEntry is one manifest.log line.
type journalEntry struct {
	// Op is "put", "del", "read", "pin", or "unpin".
	Op  string `json:"op"`
	Key string `json:"key,omitempty"`
	// Bytes and NS carry the record size and timestamp for "put" (and
	// the read time for "read").
	Bytes int64 `json:"bytes,omitempty"`
	NS    int64 `json:"ns,omitempty"`
	// Pin is the campaign label for "pin"/"unpin". An "unpin" with no
	// Key drops the label from every record.
	Pin string `json:"pin,omitempty"`
}

// apply folds a journal entry into the index map.
func (e journalEntry) apply(idx map[string]*recordMeta) {
	switch e.Op {
	case "put":
		m := idx[e.Key]
		if m == nil {
			m = &recordMeta{}
			idx[e.Key] = m
		}
		m.Bytes, m.PutNS = e.Bytes, e.NS
	case "del":
		delete(idx, e.Key)
	case "read":
		if m := idx[e.Key]; m != nil && e.NS > m.ReadNS {
			m.ReadNS = e.NS
		}
	case "pin":
		if m := idx[e.Key]; m != nil {
			m.pin(e.Pin)
		}
	case "unpin":
		if e.Key != "" {
			if m := idx[e.Key]; m != nil {
				m.unpin(e.Pin)
			}
			return
		}
		for _, m := range idx {
			m.unpin(e.Pin)
		}
	}
}

// loadManifest reads the snapshot and replays the journal from dir,
// returning the resulting advisory index. Both files are optional and
// a corrupt snapshot or torn journal line degrades to an empty (or
// partial) index — reconcile restores the key set from the record
// files, which stay authoritative.
func loadManifest(dir string) map[string]*recordMeta {
	idx := map[string]*recordMeta{}
	if raw, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		var m manifest
		if json.Unmarshal(raw, &m) == nil && m.Version == manifestVersion {
			for k, meta := range m.Records {
				if meta != nil {
					idx[k] = meta
				}
			}
		}
	}
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		return idx
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e journalEntry
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue // torn or interleaved line: advisory data, skip
		}
		e.apply(idx)
	}
	return idx
}

// writeManifest atomically replaces dir's manifest snapshot with idx.
func writeManifest(dir string, idx map[string]*recordMeta) error {
	m := manifest{Version: manifestVersion, Records: idx}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	_, err = writeAtomic(filepath.Join(dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	return nil
}
