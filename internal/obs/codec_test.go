package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// indentedWant is what WriteJSON must write for v: MarshalIndent's
// bytes and a newline.
func indentedWant(t *testing.T, v any) []byte {
	t.Helper()
	want, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

// TestWriteJSONMatchesMarshalIndent: the streaming indent writes
// exactly MarshalIndent's layout for the shapes its state machine must
// get right — nesting deeper than its run of spaces, strings holding
// quotes, brackets, commas, colons and backslashes, empty and
// nested-empty objects and arrays, and HTML-escaped characters.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	deep := any("bottom")
	for i := 0; i < 70; i++ {
		if i%2 == 0 {
			deep = []any{deep, i}
		} else {
			deep = map[string]any{"k": deep}
		}
	}
	cases := map[string]any{
		"deep":         deep,
		"escapes":      map[string]any{`a"b`: `say "hi", {x: [1]}`, `back\slash`: `\\"\"`, "tail": `ends in \`},
		"brackets":     []string{"{", "}", "[", "]", ",", ":", `"`, `\`, `\"`, `{"k": [1, 2]}`},
		"empty":        map[string]any{"o": map[string]any{}, "a": []any{}, "oa": []any{map[string]any{}, []any{}}, "ao": map[string]any{"x": []any{[]any{}}}},
		"top-empty":    map[string]any{},
		"top-array":    []any{},
		"html":         map[string]any{"<tag>": "a < b && c > d", "amp&": []string{"<", ">", "&"}},
		"control":      "tab\tnewline\nnul\x00 bell\x07 bad utf8 \xff ",
		"scalars":      []any{nil, true, false, 0, -1.5e-300, 1e21, "", 12345678901234567},
		"sample-bench": sampleArtifact(),
	}
	for name, v := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "a.json")
			if err := WriteJSON(path, v); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := indentedWant(t, v); !bytes.Equal(got, want) {
				t.Fatalf("WriteJSON wrote\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestIndenterAcrossWrites: the indenter's state (depth, string,
// escape, pending newline) carries across Write calls, so compact JSON
// fed one byte at a time indents exactly as when fed whole.
func TestIndenterAcrossWrites(t *testing.T) {
	v := map[string]any{"s": `q"\"}{][`, "a": []any{map[string]any{}, []any{1, []any{}}, "<&>"}}
	compact, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	ind := &indenter{w: bw}
	for i := range compact {
		ind.Write(compact[i : i+1])
	}
	ind.Write([]byte("\n"))
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := indentedWant(t, v); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("byte-at-a-time indent gave\n%s\nwant\n%s", out.Bytes(), want)
	}
}

// TestWriteJSONMarshalErrorLeavesNoFile: a value JSON cannot encode is
// an error naming the path, and neither the artifact nor a temp file
// is left behind.
func TestWriteJSONMarshalErrorLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	err := WriteJSON(path, map[string]float64{"nan": math.NaN()})
	if err == nil || !strings.Contains(err.Error(), "obs: marshal "+path) {
		t.Fatalf("WriteJSON of NaN: got %v, want a marshal error naming %s", err, path)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("artifact left behind after a marshal error: %v", err)
	}
	assertNoTemp(t, dir)
}

// TestIntArraysDecode pins the integer-array decoder: whitespace,
// null, the int64 extremes, and the rejection of everything that is
// not an array of integers.
func TestIntArraysDecode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Counts
	}{
		{`null`, nil},
		{` null `, nil},
		{`[]`, Counts{}},
		{" [ \t\n]\r", Counts{}},
		{`[0]`, Counts{0}},
		{` [ 1 , -2,30 ] `, Counts{1, -2, 30}},
		{`[9223372036854775807,-9223372036854775808]`, Counts{math.MaxInt64, math.MinInt64}},
	} {
		var c Counts
		if err := c.UnmarshalJSON([]byte(tc.in)); err != nil || !reflect.DeepEqual(c, tc.want) || (c == nil) != (tc.want == nil) {
			t.Errorf("Counts %q = %#v, %v; want %#v", tc.in, c, err, tc.want)
		}
	}
	for _, in := range []string{
		``, ` `, `nul`, `nulls`, `null,`, `[`, `]`, `[,]`, `[1,]`, `[,1]`, `[1 2]`, `[1]]`, `[1],`,
		`[01]`, `[-]`, `[-01]`, `[1.0]`, `[1e3]`, `[+1]`, `["1"]`, `[[1]]`, `[{}]`, `[true]`, `{}`, `1`, `"x"`,
		`[9223372036854775808]`, `[-9223372036854775809]`, `[99999999999999999999]`,
	} {
		var c Counts
		if err := c.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("Counts %q decoded as %v", in, c)
		}
	}
	var p Pairs
	if err := p.UnmarshalJSON([]byte(`[1,2,3]`)); err == nil || !strings.Contains(err.Error(), "step/proc pairs") {
		t.Errorf("odd pairs: %v, %v", p, err)
	}
	for _, v := range []int64{0, 7, -7, 10, 99, 100, math.MaxInt64, math.MinInt64} {
		if got, want := intLen(v), len(fmt.Sprint(v)); got != want {
			t.Errorf("intLen(%d) = %d, want %d", v, got, want)
		}
	}
}
