// Package ckpt is the crash-safe checkpoint store underneath the fault
// -tolerance layer (DESIGN.md §8): versioned, checksummed checkpoint
// files written atomically (write to a temp file, fsync, rename, fsync
// the directory), so a crash at any instant leaves either the previous
// checkpoint or the new one — never a half-written file that silently
// loads. Every frame carries a magic string, a format version, the
// payload length, and a CRC32 of the payload; Decode rejects anything
// truncated or corrupted with an error (never a panic), and LoadLatest
// falls back to the newest file that still verifies.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// magic identifies a checkpoint frame; Version is the current frame
// format. Decode accepts only this version so incompatible future
// formats fail loudly instead of being misparsed.
const (
	magic   = "RPCK"
	Version = 1

	// headerLen is magic(4) + version(4) + payload length(8) + CRC32(4).
	headerLen = 4 + 4 + 8 + 4

	// maxPayload bounds a single checkpoint payload (1 GiB). A frame
	// whose header claims more is corrupt by definition; the bound also
	// keeps Decode from attempting absurd allocations on garbage input.
	maxPayload = 1 << 30
)

// ErrNotFound is returned by LoadLatest when no checkpoint for the
// prefix exists (or none verifies).
var ErrNotFound = errors.New("ckpt: no valid checkpoint found")

// Encode frames a payload: magic, version, length, CRC32, payload.
func Encode(payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	copy(out[0:4], magic)
	binary.LittleEndian.PutUint32(out[4:8], Version)
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:20], crc32.ChecksumIEEE(payload))
	copy(out[headerLen:], payload)
	return out
}

// Decode verifies a frame and returns its payload. Any deviation —
// short header, wrong magic, unknown version, truncated or oversized
// payload, checksum mismatch — is an error; Decode never panics on
// arbitrary input.
func Decode(data []byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("ckpt: frame too short: %d bytes, want >= %d", len(data), headerLen)
	}
	if string(data[0:4]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("ckpt: unsupported version %d (want %d)", v, Version)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n > maxPayload {
		return nil, fmt.Errorf("ckpt: payload length %d exceeds limit %d", n, maxPayload)
	}
	if uint64(len(data)-headerLen) != n {
		return nil, fmt.Errorf("ckpt: truncated frame: %d payload bytes, header says %d", len(data)-headerLen, n)
	}
	payload := data[headerLen:]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(data[16:20]) {
		return nil, fmt.Errorf("ckpt: checksum mismatch")
	}
	return payload, nil
}

// Store writes versioned checkpoints "<prefix>-<seq>.ckpt" into Dir.
// Sequence numbers order the versions of one prefix; Save keeps the
// newest Keep of them (0 means a default of 3, negative keeps all).
// A Store is stateless apart from its configuration; concurrent Saves
// of distinct prefixes are safe.
type Store struct {
	Dir  string
	Keep int
}

// keep resolves the retention count.
func (s *Store) keep() int {
	if s.Keep == 0 {
		return 3
	}
	return s.Keep
}

const suffix = ".ckpt"

// fileName returns the versioned checkpoint name for (prefix, seq).
func fileName(prefix string, seq int) string {
	return fmt.Sprintf("%s-%08d%s", prefix, seq, suffix)
}

// parseSeq extracts the sequence number from a checkpoint file name for
// the given prefix, or ok=false if the name does not belong to it.
func parseSeq(prefix, name string) (seq int, ok bool) {
	if !strings.HasPrefix(name, prefix+"-") || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix+"-"), suffix)
	n, err := strconv.Atoi(mid)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Save atomically writes one checkpoint: the frame goes to a temp file
// in the same directory, is fsynced, renamed over the final name, and
// the directory is fsynced so the rename itself survives a crash. On
// success, versions older than the retention count are pruned. Returns
// the final path.
func (s *Store) Save(prefix string, seq int, payload []byte) (string, error) {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return "", fmt.Errorf("ckpt: mkdir: %w", err)
	}
	final := filepath.Join(s.Dir, fileName(prefix, seq))
	tmp, err := os.CreateTemp(s.Dir, fileName(prefix, seq)+".tmp-*")
	if err != nil {
		return "", fmt.Errorf("ckpt: create temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(Encode(payload)); err != nil {
		_ = tmp.Close()
		cleanup()
		return "", fmt.Errorf("ckpt: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		cleanup()
		return "", fmt.Errorf("ckpt: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return "", fmt.Errorf("ckpt: close: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		cleanup()
		return "", fmt.Errorf("ckpt: rename: %w", err)
	}
	if err := syncDir(s.Dir); err != nil {
		return "", fmt.Errorf("ckpt: fsync dir: %w", err)
	}
	s.prune(prefix)
	return final, nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// seqs returns the existing sequence numbers for prefix, ascending.
func (s *Store) seqs(prefix string) []int {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := parseSeq(prefix, e.Name()); ok {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// Seqs exposes the existing checkpoint sequence numbers for a prefix in
// ascending order (for tests and tooling).
func (s *Store) Seqs(prefix string) []int { return s.seqs(prefix) }

// prune removes the oldest versions beyond the retention count. Prune
// errors are ignored: retention is best-effort and must never fail a
// successful save.
func (s *Store) prune(prefix string) {
	keep := s.keep()
	if keep < 0 {
		return
	}
	seqs := s.seqs(prefix)
	for len(seqs) > keep {
		_ = os.Remove(filepath.Join(s.Dir, fileName(prefix, seqs[0])))
		seqs = seqs[1:]
	}
}

// LoadLatest returns the payload of the newest checkpoint for prefix
// that verifies, its sequence number, and how many newer files were
// skipped as corrupt or unreadable. A truncated or bit-flipped latest
// checkpoint is therefore not fatal: the previous intact version wins.
// Returns ErrNotFound when nothing verifies.
func (s *Store) LoadLatest(prefix string) (payload []byte, seq int, skipped int, err error) {
	seqs := s.seqs(prefix)
	for i := len(seqs) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(filepath.Join(s.Dir, fileName(prefix, seqs[i])))
		if rerr != nil {
			skipped++
			continue
		}
		p, derr := Decode(data)
		if derr != nil {
			skipped++
			continue
		}
		return p, seqs[i], skipped, nil
	}
	return nil, 0, skipped, ErrNotFound
}
