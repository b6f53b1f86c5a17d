package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// This file reads and writes the fleet's message bodies. The flat
// arrays a lease and a report carry are obs.Pairs and obs.Counts, the
// codec a checkpoint's frontier and an artifact's failing schedule
// share; each decodes into storage of exactly its length.

// Failure is one failing schedule of a report: its index within the
// reported range and its error text.
type Failure struct {
	Index int    `json:"index"`
	Error string `json:"error"`
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
