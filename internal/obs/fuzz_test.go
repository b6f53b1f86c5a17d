package obs_test

import (
	"os"
	"path/filepath"
	"testing"

	"fetchphi/internal/claims"
	"fetchphi/internal/obs"
)

// FuzzReadArtifacts feeds arbitrary bytes to every artifact reader:
// whatever a file holds — truncated, foreign, or hostile JSON — a
// reader returns an artifact or an error, and never panics. The seeds
// are the checked-in baselines, one per schema the readers know.
func FuzzReadArtifacts(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "bench", "baseline", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "artifact.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		obs.ReadArtifact(path)
		obs.ReadTraceArtifact(path)
		obs.ReadLintArtifact(path)
		obs.ReadStressArtifact(path)
		obs.ReadCapacityArtifact(path)
		obs.ReadExploreArtifact(path)
		claims.ReadArtifact(path)
		obs.ReadArtifactDir(dir)
	})
}
