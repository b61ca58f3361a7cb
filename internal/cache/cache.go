// Package cache is a content-addressed, on-disk store of simulation
// results, keyed on sim.Config.Key(). It gives the experiment engine
// cross-process persistence: each exp.Suite's in-process singleflight
// dedups simulations within one run, and this cache carries the
// results across runs, so a repeated `exps` invocation executes zero
// simulations.
//
// Entries live under <dir>/<fingerprint-hash>/<key-hash>.json, where
// the fingerprint combines the cache format version with the simulator
// version (sim.Version): results from an older simulator or entry
// layout land in a different subdirectory and are never returned.
// Writes are atomic (WriteAtomic: temp file + rename in the same
// directory), so concurrent writers — including other processes —
// degrade to last-write-wins without torn entries. Reads are
// corruption-tolerant: a missing, truncated, unparsable, or
// mislabelled entry is a miss, never an error. The service's job
// journal keeps its files with the same WriteAtomic and SweepTemp.
// The cache counts nothing; the engine counts each Get and Put it makes.
package cache

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mediasmt/internal/sim"
)

// FormatVersion is the on-disk entry layout version; bump it when the
// envelope or path scheme changes incompatibly.
const FormatVersion = 1

// Fingerprint identifies which entries this binary may reuse: the
// cache format plus the simulator version. Entries written under any
// other fingerprint are invisible to Get and removable by Prune.
func Fingerprint() string {
	return fmt.Sprintf("cachefmt-v%d+%s", FormatVersion, sim.Version)
}

// DefaultDir returns the conventional cache location,
// $XDG_CACHE_HOME/mediasmt (falling back to ~/.cache/mediasmt via
// os.UserCacheDir), or "" if no user cache directory can be resolved —
// callers treat "" as caching disabled.
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "mediasmt")
}

// Stats is a snapshot of cache activity, as the experiment engine
// counts it per suite and per Runner.
type Stats struct {
	Hits   int64 // Get found a valid entry
	Misses int64 // Get found nothing usable (absent, corrupt, or mislabelled)
	Writes int64 // Put persisted an entry
	// WriteErrors counts Puts that failed. Put errors are advisory — a
	// failed write only costs a future hit — but a persistently failing
	// store (full disk, bad permissions) would otherwise fail silently
	// forever; front-ends surface this count so the operator finds out.
	WriteErrors int64
}

// Cache is an open handle on one fingerprint's slice of the store. It
// is safe for concurrent use by multiple goroutines and coexists with
// other processes writing the same directory.
type Cache struct {
	dir   string // root, shared across fingerprints
	fp    string // this handle's fingerprint
	fpDir string // dir/<hash of fp>
}

// tmpPrefix marks in-flight Put temp files; Prune recognizes (and
// never counts) them, and sweeps orphans a killed process left behind.
const tmpPrefix = ".put-"

// entry is the on-disk envelope. Fingerprint and Key are stored
// redundantly with the path so a read can verify it got what it asked
// for (guarding against hash collisions and hand-moved files).
type entry struct {
	Fingerprint string          `json:"fingerprint"`
	Key         string          `json:"key"`
	Result      json.RawMessage `json:"result"`
}

// Open returns a cache rooted at dir for the current Fingerprint,
// creating the directory as needed.
func Open(dir string) (*Cache, error) {
	return OpenAt(dir, Fingerprint())
}

// OpenIfEnabled is the CLI policy shared by exps and smtsim: a nil
// Cache with nil error means caching is off by configuration (disabled
// flag, or no resolvable directory); a non-nil error means the cache
// was wanted but unavailable — callers warn and continue uncached,
// because a broken cache must never break a run.
func OpenIfEnabled(dir string, disabled bool) (*Cache, error) {
	if disabled || dir == "" {
		return nil, nil
	}
	return Open(dir)
}

// OpenAt is Open with an explicit fingerprint; tests use it to emulate
// entries written by a different simulator version.
func OpenAt(dir, fingerprint string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	fpDir := filepath.Join(dir, hashName(fingerprint))
	if err := os.MkdirAll(fpDir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Cache{dir: dir, fp: fingerprint, fpDir: fpDir}, nil
}

// Dir reports the cache root.
func (c *Cache) Dir() string { return c.dir }

// hashName maps an arbitrary string to a fixed-length, path-safe name.
func hashName(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

// isHashName reports whether name has hashName's shape (32 lowercase
// hex chars); Prune uses it to recognize directories this package
// created.
func isHashName(name string) bool {
	if len(name) != 32 {
		return false
	}
	for _, c := range []byte(name) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.fpDir, hashName(key)+".json")
}

// Get returns the stored result for key, or ok=false on any kind of
// absence: no entry, unreadable file, truncated or corrupt JSON, an
// envelope labelled with a different fingerprint or key, or a result
// body that no longer decodes. A bad entry is left in place for a
// later Put to overwrite.
func (c *Cache) Get(key string) (*sim.Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Fingerprint != c.fp || e.Key != key {
		return nil, false
	}
	r, err := sim.DecodeResult(e.Result)
	if err != nil {
		return nil, false
	}
	return r, true
}

// Put persists r under key with WriteAtomic, so readers and
// concurrent writers never observe a partial entry and the last writer
// wins. Callers may treat errors as advisory — a failed write only
// costs a future hit.
func (c *Cache) Put(key string, r *sim.Result) error {
	body, err := sim.EncodeResult(r)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	data, err := json.Marshal(entry{Fingerprint: c.fp, Key: key, Result: body})
	if err != nil {
		return fmt.Errorf("cache: encode entry: %w", err)
	}
	if err := WriteAtomic(c.path(key), tmpPrefix, data); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

// WriteAtomic writes data to path through a temp file named
// prefix+"*" in path's directory and a rename, so a reader — or a load
// after a crash — sees the whole file or none of it. A crash between
// the two steps leaves the temp file behind; SweepTemp with the same
// prefix removes it. Errors carry no package prefix: each caller adds
// its own.
func WriteAtomic(path, prefix string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), prefix+"*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return cmp.Or(werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Prune removes every fingerprint subdirectory under dir except the
// current Fingerprint's, and sweeps orphaned temp files out of the
// kept one. Fingerprints are opaque, so "every other" includes entries
// a *newer* build persisted, not just older ones: two differently
// versioned binaries sharing one cache dir should not prune.
//
// Prune reports how many entries it removed; in-flight temp files are
// not entries. It touches only directories named like fingerprint
// hashes, so pruning a shared directory never deletes another tool's
// data. A missing dir prunes zero entries.
func Prune(dir string) (removed int, err error) {
	if dir == "" {
		return 0, fmt.Errorf("cache: empty directory")
	}
	keep := hashName(Fingerprint())
	des, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("cache: %w", err)
	}
	for _, de := range des {
		// Only touch directories this package plausibly created (32
		// hex chars of hashName): pointing -cache-dir at a shared
		// location must never delete another tool's data.
		if !de.IsDir() || !isHashName(de.Name()) {
			continue
		}
		sub := filepath.Join(dir, de.Name())
		if de.Name() == keep {
			// The kept fingerprint only sheds orphaned temp files a
			// killed writer left behind; Get never sees them, so
			// without this they accumulate forever.
			SweepTemp(sub, tmpPrefix)
			continue
		}
		ents, err := os.ReadDir(sub)
		if err != nil {
			return removed, fmt.Errorf("cache: %w", err)
		}
		if err := os.RemoveAll(sub); err != nil {
			return removed, fmt.Errorf("cache: %w", err)
		}
		for _, ent := range ents {
			// Count real entries, not in-flight temp files.
			if !ent.IsDir() && !strings.HasPrefix(ent.Name(), tmpPrefix) {
				removed++
			}
		}
	}
	return removed, nil
}

// tmpSweepAge is how old a temp file must be before the sweep treats
// it as a crashed writer's orphan: a live WriteAtomic's temp file
// exists for milliseconds, so an hour-old one has no writer coming
// back for it.
const tmpSweepAge = time.Hour

// SweepTemp unlinks the orphaned WriteAtomic temp files named
// prefix+"*" in dir, leaving anything younger than tmpSweepAge in case
// a concurrent writer is about to rename it. Best-effort: a file that
// disappears mid-sweep is fine.
func SweepTemp(dir, prefix string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasPrefix(ent.Name(), prefix) {
			continue
		}
		info, err := ent.Info()
		if err != nil || time.Since(info.ModTime()) < tmpSweepAge {
			continue
		}
		os.Remove(filepath.Join(dir, ent.Name()))
	}
}
