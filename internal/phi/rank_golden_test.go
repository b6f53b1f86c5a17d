package phi

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestCheckRankGolden pins the rank checker's exact output: for every
// primitive of All(n), n ∈ {1,2,3,4,6} and r ∈ 1..14, the full
// RankViolation CheckRank(prim, n, r, 300, r*31+n) returns, or nil.
// The golden was recorded with the original map-and-scan checker, so
// any change to the trial loop must consume the random stream in the
// same order and report the same first violation, detail string
// included. Regenerate with `go test ./internal/phi -run
// TestCheckRankGolden -update` only after a deliberate change to the
// checker's semantics.
func TestCheckRankGolden(t *testing.T) {
	var b strings.Builder
	for _, n := range []int{1, 2, 3, 4, 6} {
		for _, prim := range All(n) {
			for r := 1; r <= 14; r++ {
				fmt.Fprintf(&b, "%s n=%d r=%d: ", prim.Name(), n, r)
				v := CheckRank(prim, n, r, 300, int64(r*31+n))
				if v == nil {
					b.WriteString("nil\n")
					continue
				}
				fmt.Fprintf(&b, "condition=%d R=%d trial=%d invoke=%d detail=%q\n",
					v.Condition, v.R, v.Trial, v.Invoke, v.Detail)
			}
		}
	}
	checkGolden(t, "rank_golden.txt", b.String())
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update, and reports the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("checker output diverges from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("checker output diverges from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
