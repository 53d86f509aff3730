package exp

// The crash-safety layer for long sweeps: a content-addressed on-disk
// store of completed engine cells. A full-registry run at -workers N is
// this repo's "training job" — hours of simulation at paper scale — and
// before this store existed one Ctrl-C, OOM kill, or poisoned design
// point threw all of it away. With a Checkpoint armed on the Context,
// every completed cell is persisted as it finishes, and a re-run of the
// same sweep re-simulates only the cells that are missing.
//
// Correctness rests on three properties:
//
//   - Keys are content-addressed: the key is a SHA-256 over a canonical
//     JSON encoding of the cell's resolved core.Options (plus a format
//     version), so a cell is reused only for byte-identical configuration.
//   - Writes are atomic and durable: entries land via temp file + fsync +
//     rename, and an append-only MANIFEST line is fsync'd per entry, so a
//     crash mid-write can leave a garbage temp file but never a torn
//     entry under a final name.
//   - Reads are paranoid: every entry embeds its canonical key and a
//     SHA-256 of its report payload. A truncated, bit-rotted, or
//     hash-colliding entry fails verification and is treated as a miss —
//     the cell is simply re-simulated — never as an error.
//
// Because core.Report round-trips exactly through encoding/json (floats
// use shortest-round-trip formatting), a resumed sweep renders tables
// byte-identical to an uninterrupted one; checkpoint_test.go enforces
// this at workers 1 and 8.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dlrmsim/internal/core"
)

// checkpointVersion tags the on-disk entry format and the canonical key
// derivation. Bump it when either changes; stale entries then read as
// misses instead of being misinterpreted.
const checkpointVersion = 4

// manifestName is the append-only audit log of committed entries.
const manifestName = "MANIFEST"

// Checkpoint is a directory-backed store of completed engine cells. It is
// safe for concurrent use; one sweep's worker goroutines share a single
// Checkpoint. Only single-process use is supported (concurrent sweeps over
// one directory would duplicate work, though atomic renames keep the
// entries themselves consistent).
type Checkpoint struct {
	dir string

	// writeOnly makes Get unconditionally miss while Put still commits —
	// recompute mode (dlrmbench -resume=false): the sweep re-simulates
	// every cell and refreshes the store in place.
	writeOnly bool

	mu       sync.Mutex
	manifest *os.File
	stats    CheckpointStats
}

// SetWriteOnly toggles recompute mode: lookups always miss, commits still
// land. Call before the sweep starts (not concurrently with Get/Put).
func (c *Checkpoint) SetWriteOnly(on bool) { c.writeOnly = on }

// CheckpointStats counts store traffic for end-of-run reporting.
type CheckpointStats struct {
	// Hits is the number of cells served from the store.
	Hits int
	// Misses is the number of lookups that found no entry.
	Misses int
	// Corrupt is the subset of Misses caused by an entry that existed but
	// failed checksum/key verification (it will be overwritten).
	Corrupt int
	// Writes is the number of entries committed this run.
	Writes int
	// WriteErrors counts failed commits (the sweep continues; the cell
	// just isn't resumable).
	WriteErrors int
}

// OpenCheckpoint opens (creating if needed) a checkpoint directory.
func OpenCheckpoint(dir string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: checkpoint dir: %w", err)
	}
	mf, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("exp: checkpoint manifest: %w", err)
	}
	return &Checkpoint{dir: dir, manifest: mf}, nil
}

// Close releases the manifest handle. Entries already written remain valid.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.manifest == nil {
		return nil
	}
	err := c.manifest.Close()
	c.manifest = nil
	return err
}

// Stats returns a snapshot of the store's counters.
func (c *Checkpoint) Stats() CheckpointStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Dir returns the backing directory.
func (c *Checkpoint) Dir() string { return c.dir }

// cellEntry is the on-disk envelope of one completed cell. Key holds the
// canonical options bytes (so a SHA-256 filename collision or a misplaced
// file is detected by comparison, not trusted), and Sum authenticates the
// report payload byte-for-byte.
type cellEntry struct {
	Version int             `json:"version"`
	Key     json.RawMessage `json:"key"`
	Sum     string          `json:"sum"`
	Report  json.RawMessage `json:"report"`
}

// canonicalCell is what a cell's key encodes: version and resolved options.
type canonicalCell struct {
	Version int          `json:"version"`
	Options core.Options `json:"options"`
}

// canonicalOptions returns the canonical key bytes for a cell: JSON of
// the resolved Options. Struct fields marshal in declaration order and
// Options holds no maps, so equal options always produce equal bytes.
// Only a non-finite float field fails to encode.
func canonicalOptions(opts core.Options) ([]byte, error) {
	buf, err := json.Marshal(canonicalCell{Version: checkpointVersion, Options: opts})
	if err != nil {
		return nil, fmt.Errorf("exp: cell %s has no key: %w", cellLabel(opts), err)
	}
	return buf, nil
}

func (c *Checkpoint) entryPath(hash string) string {
	return filepath.Join(c.dir, hash+".cell")
}

// Get looks a cell up. ok=false means the cell must be simulated — the
// entry is absent, unreadable, from another format version, or fails
// verification; corruption is never an error, just a miss.
func (c *Checkpoint) Get(opts core.Options) (core.Report, bool) {
	if c.writeOnly {
		return core.Report{}, false
	}
	key, err := canonicalOptions(opts)
	var buf []byte
	if err == nil {
		buf, err = os.ReadFile(c.entryPath(checksum(key)))
	}
	if err != nil {
		c.count(func(s *CheckpointStats) { s.Misses++ })
		return core.Report{}, false
	}
	var ent cellEntry
	if err := json.Unmarshal(buf, &ent); err != nil ||
		ent.Version != checkpointVersion ||
		!bytes.Equal(ent.Key, key) ||
		checksum(ent.Report) != ent.Sum {
		c.count(func(s *CheckpointStats) { s.Misses++; s.Corrupt++ })
		return core.Report{}, false
	}
	var rep core.Report
	if err := json.Unmarshal(ent.Report, &rep); err != nil {
		c.count(func(s *CheckpointStats) { s.Misses++; s.Corrupt++ })
		return core.Report{}, false
	}
	c.count(func(s *CheckpointStats) { s.Hits++ })
	return rep, true
}

// Put commits a completed cell. It is best-effort: a failed write is
// counted but does not fail the sweep (the cell simply won't resume).
func (c *Checkpoint) Put(opts core.Options, rep core.Report) {
	key, err := canonicalOptions(opts)
	if err == nil {
		err = c.put(key, opts, rep)
	}
	if err != nil {
		c.count(func(s *CheckpointStats) { s.WriteErrors++ })
		return
	}
	c.count(func(s *CheckpointStats) { s.Writes++ })
}

func (c *Checkpoint) put(key []byte, opts core.Options, rep core.Report) error {
	repBuf, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	buf, err := json.Marshal(cellEntry{
		Version: checkpointVersion,
		Key:     key,
		Sum:     checksum(repBuf),
		Report:  repBuf,
	})
	if err != nil {
		return err
	}
	hash := checksum(key)
	tmp, err := os.CreateTemp(c.dir, ".tmp-cell-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), c.entryPath(hash)); err != nil {
		return err
	}
	// Manifest line: audit trail of commit order. fsync'd so the log
	// survives the same crashes the entries do.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.manifest != nil {
		fmt.Fprintf(c.manifest, "%s %s\n", hash, cellLabel(opts))
		if err := c.manifest.Sync(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Checkpoint) count(f func(*CheckpointStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// checksum is the hex SHA-256 of b: applied to a cell's key it is the
// entry's file stem, applied to a report payload the entry's Sum.
func checksum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// WithCheckpoint arms the context with a cell store: Run consults it
// before simulating and commits every freshly computed cell to it. Call
// before sharing the context between goroutines. A nil cp disarms.
func (x *Context) WithCheckpoint(cp *Checkpoint) *Context {
	x.cp = cp
	return x
}
