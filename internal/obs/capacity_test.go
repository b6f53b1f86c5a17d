package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleCapacity() *CapacityArtifact {
	a := &CapacityArtifact{
		Schema:    CapacitySchema,
		Algorithm: "g-dsm",
		CreatedBy: "test",
		N:         2, Entries: 2, Preemptions: 2, MaxRuns: 1000,
		Complete:        true,
		ElapsedMS:       120,
		Waves:           6,
		Schedules:       600,
		SchedulesPerSec: 5000,
		Leases:          10,
		ReLeases:        1,
		StaleReports:    0,
		ReLeaseRate:     0.1,
		Models: []CapacityModel{
			{Model: "DSM", Done: true, Waves: 3, Schedules: 300},
			{Model: "CC", Done: true, Waves: 3, Schedules: 300},
		},
	}
	for _, us := range []int64{100, 2000, 40000} {
		a.WaveUS.Observe(us)
	}
	return a
}

// TestCapacityRoundTrip: write → read preserves the artifact, and
// Normalize sorts model rows so construction order can't leak into the
// bytes.
func TestCapacityRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "CAP.json")
	a := sampleCapacity()
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCapacityArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != "g-dsm" || got.Schedules != 600 || !got.Complete {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Models[0].Model != "CC" || got.Models[1].Model != "DSM" {
		t.Fatalf("models not normalized: %+v", got.Models)
	}
	if got.WaveUS.Count != 3 || got.WaveUS.Max != 40000 {
		t.Fatalf("wave histogram lost: %+v", got.WaveUS)
	}
}

// TestCapacityWriteIsByteStable: two artifacts with the same content
// but different model-row order write identical bytes.
func TestCapacityWriteIsByteStable(t *testing.T) {
	dir := t.TempDir()
	a, b := sampleCapacity(), sampleCapacity()
	b.Models[0], b.Models[1] = b.Models[1], b.Models[0]
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := a.WriteFile(pa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(pb); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(pa)
	db, _ := os.ReadFile(pb)
	if string(da) != string(db) {
		t.Fatalf("model order leaked into bytes:\n%s\n%s", da, db)
	}
}

// TestReadCapacityRejectsForeignSchema: an explore artifact is not a
// capacity artifact.
func TestReadCapacityRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "EXPLORE.json")
	if err := os.WriteFile(path, []byte(`{"schema":"fetchphi.explore/v2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCapacityArtifact(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign schema accepted: %v", err)
	}
}
