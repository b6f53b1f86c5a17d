package obs

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestWriteFileAtomicConcurrentWriters: writers racing on one path
// each go through their own temp file, so every write succeeds, the
// survivor parses whole, and no temp file is left behind. With a fixed
// path+".tmp" name one writer's rename steals another's temp file.
func TestWriteFileAtomicConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	const writers, writes = 16, 50
	errs := make(chan error, writers*writes)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				errs <- sampleExplore().WriteFile(path)
			}
		}()
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		if err != nil {
			if failed == 0 {
				t.Errorf("write failed: %v", err)
			}
			failed++
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d concurrent writes failed", failed, writers*writes)
	}
	if _, err := ReadExploreArtifact(path); err != nil {
		t.Fatal(err)
	}
	if leftover, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(leftover) != 0 {
		t.Fatalf("temp files left behind: %v", leftover)
	}
}

// TestWriteFileAtomicMode: artifacts are shared records, readable by
// everyone, even though the temp file they start as is private.
func TestWriteFileAtomicMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	if err := sampleExplore().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o644 {
		t.Fatalf("artifact mode %v, want 0644", mode)
	}
}

// TestWriteFileAtomicFailureLeavesNoTemp: a write that fails — the
// directory refuses new files, or the rename target is a directory —
// returns an error and leaves no temp file behind.
func TestWriteFileAtomicFailureLeavesNoTemp(t *testing.T) {
	t.Run("unwritable-dir", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(dir, 0o755)
		if probe, err := os.CreateTemp(dir, "probe"); err == nil {
			probe.Close()
			os.Remove(probe.Name())
			t.Skip("directory permissions are not enforced for this user")
		}
		if err := WriteFileAtomic(filepath.Join(dir, "a.json"), []byte("{}\n")); err == nil {
			t.Fatal("write into an unwritable directory succeeded")
		}
		assertNoTemp(t, dir)
	})
	t.Run("target-is-dir", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.json")
		if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(path, []byte("{}\n")); err == nil {
			t.Fatal("rename onto a non-empty directory succeeded")
		}
		assertNoTemp(t, dir)
	})
}

func assertNoTemp(t *testing.T, dir string) {
	t.Helper()
	if leftover, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(leftover) != 0 {
		t.Fatalf("temp files left behind: %v", leftover)
	}
}
