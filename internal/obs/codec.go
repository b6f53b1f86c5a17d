package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file is the artifact codec every schema shares: one atomic
// writer and one schema-checked reader. Schemas keep only what is
// theirs — the schema-tag default, canonical ordering and validation,
// and their Compare gate.

// WriteJSON writes v to path as indented JSON with a trailing newline,
// atomically (see WriteFileAtomic). The bytes are exactly
// json.MarshalIndent(v, "", "  ") and a newline, but made in one pass:
// the encoder's compact output is indented as it streams into the
// buffered temp file, so no whole-artifact copy is ever built.
func WriteJSON(path string, v any) error {
	return writeAtomic(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		// A write error is held by bw, so Encode fails only to marshal.
		if err := json.NewEncoder(&indenter{w: bw}).Encode(v); err != nil {
			return fmt.Errorf("marshal %s: %w", path, err)
		}
		return bw.Flush()
	})
}

// spaces is a run of indentation that newline writes in slices.
var spaces = strings.Repeat(" ", 64)

// indenter rewrites the compact JSON an Encoder writes into the layout
// of json.MarshalIndent(v, "", "  "), byte for byte: a newline and two
// spaces per level after each opening bracket and comma and before
// each closing bracket, ": " after a key, and {} and [] left compact
// when empty. Bytes between those marks (string contents, numbers,
// literals) go out in one Write per run. Its state carries across
// Write calls; write errors are left in w, whose Flush returns them.
type indenter struct {
	w        *bufio.Writer
	depth    int
	inString bool // inside a string literal
	escaped  bool // the previous byte in the string was an unescaped backslash
	open     bool // a bracket was just opened: its newline waits for a first member
}

func (d *indenter) Write(p []byte) (int, error) {
	run := 0 // start of the bytes not yet written
	for i, c := range p {
		if d.inString {
			switch {
			case d.escaped:
				d.escaped = false
			case c == '\\':
				d.escaped = true
			case c == '"':
				d.inString = false
			}
			continue
		}
		if d.open && c != '}' && c != ']' {
			d.open = false
			d.depth++
			d.w.Write(p[run:i])
			run = i
			d.newline()
		}
		switch c {
		case '"':
			d.inString = true
		case '{', '[':
			d.w.Write(p[run : i+1])
			run = i + 1
			d.open = true
		case ',':
			d.w.Write(p[run : i+1])
			run = i + 1
			d.newline()
		case ':':
			d.w.Write(p[run:i])
			d.w.WriteString(": ")
			run = i + 1
		case '}', ']':
			d.w.Write(p[run:i])
			run = i
			if d.open {
				d.open = false
			} else {
				d.depth--
				d.newline()
			}
		}
	}
	d.w.Write(p[run:])
	return len(p), nil
}

// newline starts a line indented to the current depth.
func (d *indenter) newline() {
	d.w.WriteByte('\n')
	n := 2 * d.depth
	for ; n > len(spaces); n -= len(spaces) {
		d.w.WriteString(spaces)
	}
	d.w.WriteString(spaces[:n])
}

// WriteFileAtomic writes data to path through a uniquely named temp
// file in the same directory and a rename, creating parent directories
// as needed: a crashed run never leaves a truncated file behind, and
// concurrent writers of one path never collide — the last rename wins
// whole. The file gets mode 0644, and on any error the temp file is
// removed.
func WriteFileAtomic(path string, data []byte) error {
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeAtomic is WriteFileAtomic with the contents written by write.
func writeAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// CreateTemp makes the file 0600; artifacts are shared records.
		err = os.Chmod(f.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

// ReadJSON loads the JSON file at path into a new T and checks that
// its schema tag, as returned by schema, is want: an artifact of
// another format (or version) is an error, never a silent misread.
func ReadJSON[T any](path, want string, schema func(*T) string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return decodeJSON(path, data, want, schema)
}

// decodeJSON is ReadJSON on bytes already read from path.
func decodeJSON[T any](path string, data []byte, want string, schema func(*T) string) (*T, error) {
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("obs: parse %s: %w", path, err)
	}
	if got := schema(v); got != want {
		return nil, fmt.Errorf("obs: %s has schema %q, want %q", path, got, want)
	}
	return v, nil
}
