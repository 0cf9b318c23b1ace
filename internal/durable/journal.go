package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Journal is a content-addressed result store: each entry is an
// opaque payload filed under a caller-derived key (for the pdbd
// response cache, the hash of an endpoint, its parameters and the
// corpus fingerprint). Entries are written atomically and self-verify
// on load — the file carries its own key and a checksum of its
// payload, so a stale, torn, or tampered entry is detected by hash
// mismatch and reported as invalid rather than silently reused. That
// is the whole reuse contract: a key can only ever name one byte
// string, so reusing a verified entry is proven equivalent to
// recomputing it.
type Journal struct {
	fsys FS
	dir  string
}

// journalMagic opens the first line of every entry file. The key is
// repeated inside the file so a renamed or copied entry cannot
// masquerade as another key's result.
const journalMagic = "#pdt-checkpoint v1"

// OpenJournal opens (creating if needed) the journal directory.
// Writes go through fsys — the kill-point seam — while loads read the
// real filesystem directly.
func OpenJournal(fsys FS, dir string) (*Journal, error) {
	if fsys == nil {
		fsys = OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: journal %s: %w", dir, err)
	}
	return &Journal{fsys: fsys, dir: dir}, nil
}

// Dir reports the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Sum returns the hex SHA-256 of data — the leaf hash for
// content-addressed keys.
func Sum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// KeyOf derives a journal key from its labeled parts (content hashes,
// option fingerprints). Parts are length-prefix framed before hashing
// so no two distinct part lists collide by concatenation.
func KeyOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (j *Journal) path(key string) string {
	return filepath.Join(j.dir, key+".ckpt")
}

// Store files payload under key, atomically and durably. Concurrent
// stores of the same key are safe: each stages to its own temp file
// and the atomic rename makes one complete entry win.
func (j *Journal) Store(key string, payload []byte) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s key=%s sum=%s len=%d\n", journalMagic, key, Sum(payload), len(payload))
	buf.Write(payload)
	return WriteFileFS(j.fsys, j.path(key), buf.Bytes(), 0o644)
}

// Load fetches the payload stored under key. ok reports a verified
// hit. invalid reports an entry that exists but failed verification —
// wrong magic, key mismatch, checksum mismatch, or truncation — which
// the caller should count (e.g. cache.disk.invalid) and overwrite;
// Load never returns such bytes.
func (j *Journal) Load(key string) (payload []byte, ok, invalid bool) {
	data, err := os.ReadFile(j.path(key))
	if err != nil {
		return nil, false, false
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false, true
	}
	header, body := string(data[:nl]), data[nl+1:]
	var gotKey, gotSum string
	var gotLen int
	rest, found := strings.CutPrefix(header, journalMagic+" ")
	if !found {
		return nil, false, true
	}
	if _, err := fmt.Sscanf(rest, "key=%s sum=%s len=%d", &gotKey, &gotSum, &gotLen); err != nil {
		return nil, false, true
	}
	if gotKey != key || gotLen != len(body) || gotSum != Sum(body) {
		return nil, false, true
	}
	return body, true, false
}

// Keys lists every key with an entry in the journal, sorted. Entries
// are not verified — Load still decides whether each one is usable.
func (j *Journal) Keys() ([]string, error) {
	names, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: journal %s: %w", j.dir, err)
	}
	var keys []string
	for _, de := range names {
		if name, ok := strings.CutSuffix(de.Name(), ".ckpt"); ok && !de.IsDir() {
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Remove deletes the entry stored under key, if any.
func (j *Journal) Remove(key string) error {
	err := j.fsys.Remove(j.path(key))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}
