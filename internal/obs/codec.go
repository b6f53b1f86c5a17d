package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// This file is the artifact codec every schema shares: one atomic
// writer and one schema-checked reader. Schemas keep only what is
// theirs — the schema-tag default, canonical ordering and validation,
// and their Compare gate.

// WriteJSON writes v to path as indented JSON with a trailing newline,
// atomically (see WriteFileAtomic).
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal %s: %w", path, err)
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// WriteFileAtomic writes data to path through a uniquely named temp
// file in the same directory and a rename, creating parent directories
// as needed: a crashed run never leaves a truncated file behind, and
// concurrent writers of one path never collide — the last rename wins
// whole. The file gets mode 0644, and on any error the temp file is
// removed.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	_, err = f.Write(data)
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
