package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// eventHasher folds every event of a run into one SHA-256: step,
// process, kind, phase, variable label, before and after values and
// whether it was remote, in the order the engine delivered them.
// Labels are resolved when the run ends, so events are kept until then.
type eventHasher struct {
	events []memsim.TraceEvent
	sum    string
}

func (h *eventHasher) Record(ev memsim.TraceEvent) { h.events = append(h.events, ev) }

func (h *eventHasher) EndRun(labels memsim.Labeler) {
	d := sha256.New()
	for _, ev := range h.events {
		hashWords(d, uint64(ev.Step), uint64(ev.Proc), uint64(ev.Kind), uint64(ev.Phase))
		fmt.Fprintf(d, "%s\x00", labels.Label(ev.Var))
		remote := uint64(0)
		if ev.Remote {
			remote = 1
		}
		hashWords(d, uint64(ev.Before), uint64(ev.After), remote)
	}
	h.sum = hex.EncodeToString(d.Sum(nil))
}

func hashWords(d hash.Hash, xs ...uint64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		d.Write(b[:])
	}
}

// TestPromotionTreeEventsGolden pins the whole event stream of T0 and
// T, the two promotion trees: both at the paper's degree, T also over
// fetch-and-store, and one explicit degree of each (T0 at 3, T at 4)
// so that nodes with three or more children are scanned. Each runs on
// CC and DSM at N = 5 and 27 under seeds 1–3, three entries a process.
// Regenerate with `go test ./internal/core -run
// TestPromotionTreeEventsGolden -update` only after a deliberate
// change to what these algorithms do.
func TestPromotionTreeEventsGolden(t *testing.T) {
	algs := []struct {
		name  string
		build harness.Builder
	}{
		{"t0", func(m *memsim.Machine) harness.Algorithm { return NewT0(m) }},
		{"t", func(m *memsim.Machine) harness.Algorithm { return NewT(m, phi.BoundedIncDec{}) }},
		{"t/fas", func(m *memsim.Machine) harness.Algorithm { return NewT(m, phi.FetchAndStore{}) }},
		{"t0(m=3)", func(m *memsim.Machine) harness.Algorithm { return NewT0WithDegree(m, 3) }},
		{"t(m=4)", func(m *memsim.Machine) harness.Algorithm { return NewTWithDegree(m, phi.BoundedIncDec{}, 4) }},
	}
	var b strings.Builder
	for _, a := range algs {
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
			for _, n := range []int{5, 27} {
				for seed := int64(1); seed <= 3; seed++ {
					h := new(eventHasher)
					w := harness.Workload{Model: model, N: n, Entries: 3, Seed: seed, Sink: h}
					if _, err := harness.Run(a.build, w); err != nil {
						t.Fatalf("%s %v N=%d seed %d: %v", a.name, model, n, seed, err)
					}
					fmt.Fprintf(&b, "%s %v N=%d seed=%d events=%d %s\n", a.name, model, n, seed, len(h.events), h.sum)
				}
			}
		}
	}
	path := filepath.Join("testdata", "events_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("event stream diverges from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output diverges from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
