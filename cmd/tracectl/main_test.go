package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fetchphi/internal/obs"
	"fetchphi/internal/trace"
)

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestRecordValidateConvert is the full tracectl pipeline on a real
// G-DSM run: record a trace artifact, validate it, convert it to
// Chrome trace-event JSON, and check the conversion is
// Perfetto-loadable.
func TestRecordValidateConvert(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "TRACE_gdsm.json")
	chromePath := filepath.Join(dir, "trace.chrome.json")

	code, stdout, stderr := runArgs("record",
		"-alg", "g-dsm", "-model", "DSM", "-n", "4", "-entries", "3",
		"-seed", "1", "-out", tracePath)
	if code != 0 {
		t.Fatalf("record exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "spans over") {
		t.Fatalf("record summary missing: %q", stdout)
	}

	a, err := obs.ReadTraceArtifact(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != "recording" || a.Algorithm != "g-dsm" || a.Model != "DSM" || a.N != 4 {
		t.Fatalf("artifact identity wrong: %+v", a)
	}
	kinds := map[string]bool{}
	for _, s := range a.Spans {
		kinds[s.Kind] = true
		if s.Open {
			t.Fatalf("clean recording has open span %+v", s)
		}
	}
	for _, k := range []string{"entry", "cs", "exit"} {
		if !kinds[k] {
			t.Fatalf("no %q spans recorded: %v", k, kinds)
		}
	}

	if code, _, stderr := runArgs("validate", "-in", tracePath); code != 0 {
		t.Fatalf("validate exit %d: %s", code, stderr)
	}

	code, _, stderr = runArgs("convert", "-in", tracePath, "-out", chromePath)
	if code != 0 {
		t.Fatalf("convert exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatal(err)
	}
}

// TestRecordDeterministic: same flags, same trace bytes.
func TestRecordDeterministic(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.json")
	p2 := filepath.Join(dir, "b.json")
	for _, p := range []string{p1, p2} {
		if code, _, stderr := runArgs("record", "-alg", "mcs", "-model", "CC",
			"-n", "3", "-entries", "2", "-seed", "7", "-out", p); code != 0 {
			t.Fatalf("record exit %d: %s", code, stderr)
		}
	}
	a, _ := os.ReadFile(p1)
	b, _ := os.ReadFile(p2)
	if string(a) != string(b) {
		t.Fatal("identical record invocations produced different artifacts")
	}
}

// TestRecordLimitBounds: -limit caps retained spans per process.
func TestRecordLimitBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	const limit = 4
	if code, _, stderr := runArgs("record", "-alg", "ticket", "-model", "CC",
		"-n", "2", "-entries", "10", "-limit", "4", "-out", path); code != 0 {
		t.Fatalf("record exit %d: %s", code, stderr)
	}
	a, err := obs.ReadTraceArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.SpanLimit != limit {
		t.Fatalf("SpanLimit = %d, want %d", a.SpanLimit, limit)
	}
	perProc := map[int]int{}
	for _, s := range a.Spans {
		perProc[s.Proc]++
	}
	for proc, count := range perProc {
		if count > limit {
			t.Fatalf("p%d retained %d spans, limit %d", proc, count, limit)
		}
	}
}

// TestUsageErrors: the exit-code contract for bad invocations.
func TestUsageErrors(t *testing.T) {
	valid := filepath.Join(t.TempDir(), "x.json")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no subcommand", nil, "usage"},
		{"bad subcommand", []string{"frobnicate"}, "unknown subcommand"},
		{"record no out", []string{"record"}, "-out is required"},
		{"record bad model", []string{"record", "-model", "NUMA", "-out", valid}, "unknown model"},
		{"record bad alg", []string{"record", "-alg", "nope", "-out", valid}, "unknown algorithm"},
		{"record bad n", []string{"record", "-n", "0", "-out", valid}, "must be positive"},
		{"convert no in", []string{"convert"}, "-in is required"},
		{"validate no in", []string{"validate"}, "-in is required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runArgs(tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr %q missing %q", stderr, tc.want)
			}
		})
	}
}

// TestValidateRejectsCorruptArtifact: schema violations exit 1.
func TestValidateRejectsCorruptArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"fetchphi.trace/v2","kind":"recording","spans":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runArgs("validate", "-in", path)
	if code != 1 || !strings.Contains(stderr, "schema") {
		t.Fatalf("exit %d stderr %q, want 1 + schema error", code, stderr)
	}
	if code, _, _ := runArgs("convert", "-in", path); code != 1 {
		t.Fatalf("convert of invalid artifact exited %d, want 1", code)
	}
}

// TestHotspots: the hotspots subcommand prints its run summary and the
// ranked variable table, and rejects a bad model or process count as a
// usage error.
func TestHotspots(t *testing.T) {
	code, stdout, stderr := runArgs("hotspots", "-alg", "ticket", "-model", "DSM", "-n", "4", "-entries", "3", "-top", "5")
	if code != 0 {
		t.Fatalf("hotspots exit %d, stderr: %s", code, stderr)
	}
	lines := strings.Split(stdout, "\n")
	if len(lines) < 4 || !strings.HasPrefix(lines[0], "ticket on DSM, N=4, 3 entries each: 12 CS entries, ") {
		t.Fatalf("summary line wrong: %q", stdout)
	}
	if lines[1] != "" || !strings.HasPrefix(lines[2], "variable ") || !strings.HasSuffix(lines[2], "RMRs   share") {
		t.Fatalf("table header wrong: %q", stdout)
	}
	for _, bad := range [][]string{{"-model", "bogus"}, {"-n", "0"}} {
		if code, _, stderr := runArgs(append([]string{"hotspots"}, bad...)...); code != 2 {
			t.Fatalf("hotspots %v: exit %d, want 2 (stderr %q)", bad, code, stderr)
		}
	}
}
