package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"fetchphi/internal/memsim"
)

// This file is the fleet's JSON codec for the flat arrays a lease and
// a report carry. Each decodes into storage of exactly its length:
// Pairs and Counts validate and count their integers in one pass over
// the raw bytes and read them in a second, so no preemption or count
// array on the wire is grown by reflection or append while it is read.

// Pairs is a run of preemptions on the wire: one flat JSON array of
// step/proc pairs, [step0, proc0, step1, proc1, ...]. A nil Pairs is
// null.
type Pairs []memsim.Preemption

// Counts is a flat JSON array of integers.
type Counts []int

// Failure is one failing schedule of a report: its index within the
// reported range and its error text.
type Failure struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

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
		return fmt.Errorf("fleet: %d words do not form step/proc pairs", words)
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
var errNotInts = errors.New("fleet: want null or an array of integers")

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

// bodyPrealloc bounds the buffer a message body's declared length may
// reserve before its bytes arrive; a longer body grows the buffer as it
// comes. Every report and lease at the default lease size fits in it.
const bodyPrealloc = 64 << 10

// readJSON reads a whole message body and decodes it into v. The
// buffer starts at the declared length, capped at bodyPrealloc, with
// one spare byte so reading the end of a body of exactly that length
// does not grow it.
func readJSON(body io.Reader, declared int64, v any) error {
	data := make([]byte, 0, min(max(declared, 0), bodyPrealloc)+1)
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := body.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	return json.Unmarshal(data, v)
}

// writeJSON answers with v as JSON, newline-terminated like
// json.Encoder's output, declaring its length so the reader can size
// its buffer.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)+1))
	w.Write(data)
	w.Write([]byte{'\n'})
}
