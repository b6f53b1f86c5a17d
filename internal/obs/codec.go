package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"fetchphi/internal/memsim"
)

// This file is the artifact codec every schema shares: one atomic
// writer, one schema-checked reader, and the flat integer arrays
// (Pairs, Counts) that are the one serialized form of a schedule.
// Schemas keep only what is theirs — the schema-tag default, canonical
// ordering and validation, and their Compare gate.

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

// decodeJSON is ReadJSON on bytes already read from path. A file of
// another version that does not decode as this one (a v1 explore
// checkpoint's preemption objects, say) is refused for its schema tag,
// which every writer puts first, not for the field it stopped at.
func decodeJSON[T any](path string, data []byte, want string, schema func(*T) string) (*T, error) {
	v := new(T)
	err := json.Unmarshal(data, v)
	if got := schema(v); got != want && (err == nil || got != "") {
		return nil, fmt.Errorf("obs: %s has schema %q, want %q", path, got, want)
	}
	if err != nil {
		return nil, fmt.Errorf("obs: parse %s: %w", path, err)
	}
	return v, nil
}

// Pairs is a run of preemptions as one flat JSON array of step/proc
// pairs, [step0, proc0, step1, proc1, ...]; a nil Pairs is null. It is
// the one serialized form of schedules: a fleet lease's schedules and
// a report's appended children, a checkpoint's frontier and an explore
// artifact's failing schedule. Pairs and Counts decode into storage of
// exactly their length: they validate and count their integers in one
// pass over the raw bytes and read them in a second, so neither is
// grown by reflection or append while it is read.
type Pairs []memsim.Preemption

// Counts is a flat JSON array of integers.
type Counts []int

// MarshalJSON writes the pairs as one flat array of integers into a
// buffer of exactly its length.
func (p Pairs) MarshalJSON() ([]byte, error) {
	if p == nil {
		return []byte("null"), nil
	}
	n := 2 + 2*len(p) - 1
	for _, q := range p {
		n += intLen(q.Step) + intLen(int64(q.Proc))
	}
	buf := make([]byte, 0, max(n, 2))
	buf = append(buf, '[')
	for i, q := range p {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, q.Step, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(q.Proc), 10)
	}
	return append(buf, ']'), nil
}

// UnmarshalJSON reads a flat array of an even number of integers.
func (p *Pairs) UnmarshalJSON(data []byte) error {
	words, err := countInts(data)
	switch {
	case err != nil:
		return err
	case words < 0:
		*p = nil
		return nil
	case words%2 != 0:
		return fmt.Errorf("obs: %d words do not form step/proc pairs", words)
	}
	out := make(Pairs, words/2)
	r := intReader{data: data}
	for i := range out {
		out[i] = memsim.Preemption{Step: r.next(), Proc: int(r.next())}
	}
	*p = out
	return nil
}

// UnmarshalJSON reads a flat array of integers.
func (c *Counts) UnmarshalJSON(data []byte) error {
	n, err := countInts(data)
	if err != nil {
		return err
	}
	if n < 0 {
		*c = nil
		return nil
	}
	out := make(Counts, n)
	r := intReader{data: data}
	for i := range out {
		out[i] = int(r.next())
	}
	*c = out
	return nil
}

// errNotInts is the error of a value that is neither null nor an array
// of integers.
var errNotInts = errors.New("obs: want null or an array of integers")

// countInts checks that data is null or a JSON array of integers and
// returns how many it holds, -1 for null.
func countInts(data []byte) (int, error) {
	i := skipSpace(data, 0)
	if len(data)-i >= 4 && string(data[i:i+4]) == "null" {
		if skipSpace(data, i+4) != len(data) {
			return 0, errNotInts
		}
		return -1, nil
	}
	if i == len(data) || data[i] != '[' {
		return 0, errNotInts
	}
	i = skipSpace(data, i+1)
	n := 0
	if i < len(data) && data[i] == ']' {
		i++
	} else {
		for {
			_, end, ok := parseInt(data, i)
			if !ok {
				return 0, errNotInts
			}
			n++
			i = skipSpace(data, end)
			if i == len(data) {
				return 0, errNotInts
			}
			c := data[i]
			i++
			if c == ']' {
				break
			}
			if c != ',' {
				return 0, errNotInts
			}
			i = skipSpace(data, i)
		}
	}
	if skipSpace(data, i) != len(data) {
		return 0, errNotInts
	}
	return n, nil
}

// intReader reads back, in order, the integers of an array countInts
// accepted.
type intReader struct {
	data []byte
	pos  int
}

func (r *intReader) next() int64 {
	for c := r.data[r.pos]; c != '-' && (c < '0' || c > '9'); c = r.data[r.pos] {
		r.pos++
	}
	v, end, _ := parseInt(r.data, r.pos)
	r.pos = end
	return v
}

// parseInt parses the JSON integer at data[i:]: an optional minus, then
// 0 or a digit string without a leading zero, within int64. ok is false
// if there is none there or it overflows.
func parseInt(data []byte, i int) (v int64, end int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		if u > (1<<63)/10 {
			return 0, i, false
		}
		u = u*10 + uint64(data[i]-'0')
		if u > 1<<63 {
			return 0, i, false
		}
	}
	switch {
	case i == start, data[start] == '0' && i-start > 1, !neg && u == 1<<63:
		return 0, i, false
	case neg:
		return -int64(u), i, true
	}
	return int64(u), i, true
}

// intLen is the length of v written in decimal.
func intLen(v int64) int {
	n := 1
	if v < 0 {
		n++
		if v == -1<<63 {
			return 20
		}
		v = -v
	}
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}
