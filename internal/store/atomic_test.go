package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWriteAtomicFailedWriteLeavesNoTrace pins writeAtomic's failure
// contract: a write that fails part-way returns its error, leaves the
// destination's previous bytes in place, and removes its temp.
func TestWriteAtomicFailedWriteLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "rec.json")
	if err := os.WriteFile(dst, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err := writeAtomic(dst, func(w io.Writer) error {
		if _, err := io.WriteString(w, "{half a rec"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writeAtomic error = %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(dst); err != nil || string(got) != "old" {
		t.Errorf("dst = %q (err %v), want the untouched %q", got, err, "old")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("dir holds %v, want only rec.json", names)
	}
}

// TestPruneSweepsEveryWritersTemps pins that the temp each writeAtomic
// caller stages — a Put record, the manifest snapshot, and a Restore
// copy (copyFileAtomic) — is recognised and swept by Prune once stale,
// as a process killed mid-write would leave it.
func TestPruneSweepsEveryWritersTemps(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dsts := map[string]string{
		"Put":           s.path("fig8", "abc123def456"),
		"writeManifest": filepath.Join(s.dir, manifestName),
		"Restore":       filepath.Join(s.dir, Key("fig4", "aaaa00000000")+recordExt),
	}
	old := time.Now().Add(-2 * time.Hour)
	temps := map[string]string{}
	for caller, dst := range dsts {
		temp := strandTemp(t, dst)
		if err := os.Chtimes(temp, old, old); err != nil {
			t.Fatal(err)
		}
		temps[caller] = temp
	}
	rep, err := s.Prune()
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if rep.RemovedTemps != len(temps) {
		t.Errorf("RemovedTemps = %d, want %d", rep.RemovedTemps, len(temps))
	}
	for caller, temp := range temps {
		if _, err := os.Stat(temp); !os.IsNotExist(err) {
			t.Errorf("%s temp %s survived Prune (stat err %v)", caller, filepath.Base(temp), err)
		}
	}
}

// strandTemp returns the temp name writeAtomic stages dst under,
// recreated with partial contents the way a killed writer leaves it.
func strandTemp(t *testing.T, dst string) string {
	t.Helper()
	var name string
	killed := errors.New("killed")
	if _, err := writeAtomic(dst, func(w io.Writer) error {
		name = w.(*os.File).Name()
		return killed
	}); !errors.Is(err, killed) {
		t.Fatalf("writeAtomic(%s) = %v", dst, err)
	}
	if err := os.WriteFile(name, []byte("{half"), 0o600); err != nil {
		t.Fatal(err)
	}
	return name
}
