// Package store is the content-addressed trace-set store behind
// dperfd. Artifacts are admitted by their serialized bytes and keyed
// by the SHA-256 of those bytes, so a digest names exactly one trace
// set forever — the property the server's result cache leans on: a
// cached response keyed by (digest, platform, spec) can never go stale,
// because the digest pins the input bits.
//
// Admission parses the artifact (dperf.ReadTraceSetData — the same
// parser the CLI uses, so store and CLI accept byte-identical inputs),
// checks it (TraceSet.Prepare refuses an empty set) and measures it
// (TraceSet.Stats, which sizes every format from the folded IR in
// O(folded ops) and never unfolds the records, so admission costs
// track the artifact's folded size, not the record count it claims).
// A trace set is immutable from the moment it is read, so an entry's
// set replays freely from any number of goroutines.
//
// With a directory the store persists each artifact under its digest
// via an atomic temp-file rename, and reopening verifies every file
// against its name — a flipped bit fails loudly at startup, not as a
// silently different prediction.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/dperf"
)

// Entry is one admitted trace set. All fields are immutable after
// admission.
type Entry struct {
	// Digest is the lowercase hex SHA-256 of the artifact bytes.
	Digest string
	// Size is the artifact's serialized length in bytes.
	Size int64
	// Set is the parsed trace set, safe for concurrent replay.
	Set *dperf.TraceSet
	// Stats is the admission-time measurement of the set, taken once
	// in O(folded ops) without unfolding it.
	Stats *dperf.TraceStats
}

// Store is a content-addressed trace-set store, safe for concurrent
// use.
type Store struct {
	dir string // "" = memory only

	mu      sync.Mutex
	entries map[string]*Entry
}

// Digest returns the store key for an artifact: the lowercase hex
// SHA-256 of its bytes.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Open returns a store persisting artifacts in dir, creating the
// directory if needed and re-admitting every artifact already present.
// An empty dir yields a memory-only store. Persisted files are named
// by their digest; a file whose content no longer hashes to its name
// fails Open.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, entries: make(map[string]*Entry)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range names {
		if de.IsDir() || !isDigestName(de.Name()) {
			continue
		}
		path := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if got := Digest(data); got != de.Name() {
			return nil, fmt.Errorf("store: %s is corrupt: content digest %s does not match its name", path, got)
		}
		if _, _, err := s.admit(data, de.Name(), false); err != nil {
			return nil, fmt.Errorf("store: %s: %w", path, err)
		}
	}
	return s, nil
}

// isDigestName reports whether name is a lowercase hex SHA-256.
func isDigestName(name string) bool {
	if len(name) != sha256.Size*2 {
		return false
	}
	for _, c := range name {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Put admits an artifact: parse, check, measure, persist. It returns
// the entry plus whether it was newly created — re-uploading known
// bytes is an O(hash) no-op returning the existing entry.
func (s *Store) Put(data []byte) (*Entry, bool, error) {
	return s.admit(data, Digest(data), s.dir != "")
}

func (s *Store) admit(data []byte, digest string, persist bool) (*Entry, bool, error) {
	s.mu.Lock()
	if e, ok := s.entries[digest]; ok {
		s.mu.Unlock()
		return e, false, nil
	}
	s.mu.Unlock()

	// Parse and measure outside the lock: admission is the expensive
	// path and must not block serving.
	ts, err := dperf.ReadTraceSetData("traceset "+shortDigest(digest), data)
	if err != nil {
		return nil, false, err
	}
	if err := ts.Prepare(); err != nil {
		return nil, false, err
	}
	stats, err := ts.Stats()
	if err != nil {
		return nil, false, fmt.Errorf("traceset %s: %w", shortDigest(digest), err)
	}
	if persist {
		if err := s.persist(data, digest); err != nil {
			return nil, false, err
		}
	}

	e := &Entry{Digest: digest, Size: int64(len(data)), Set: ts, Stats: stats}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.entries[digest]; ok {
		// Lost an admission race for the same bytes; equal digests mean
		// equal artifacts, so either entry serves identically.
		return existing, false, nil
	}
	s.entries[digest] = e
	return e, true, nil
}

// persist writes the artifact to dir/<digest> atomically: a temp file
// in the same directory, then a rename, so a crash never leaves a
// half-written artifact under a valid digest name.
func (s *Store) persist(data []byte, digest string) error {
	f, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, digest)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// shortDigest abbreviates a digest for error labels.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// Get returns the entry for a digest.
func (s *Store) Get(digest string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	return e, ok
}

// List returns every entry ordered by digest.
func (s *Store) List() []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// Len reports the number of admitted trace sets.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
