package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

// testResult runs one tiny simulation to cache. Results are memoized
// per seed so the suite pays for each at most once.
var (
	resMu   sync.Mutex
	resMemo = map[uint64]*sim.Result{}
)

func testResult(t *testing.T, seed uint64) *sim.Result {
	t.Helper()
	resMu.Lock()
	defer resMu.Unlock()
	if r, ok := resMemo[seed]; ok {
		return r
	}
	r, err := sim.Run(sim.Config{
		ISA: core.ISAMMX, Threads: 1, Policy: core.PolicyRR,
		Memory: mem.ModeIdeal, Scale: 0.02, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	resMemo[seed] = r
	return r
}

// entryPath reproduces the cache's path scheme so tests can corrupt
// entries directly.
func entryPath(dir, fingerprint, key string) string {
	fph := sha256.Sum256([]byte(fingerprint))
	kh := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(fph[:16]), hex.EncodeToString(kh[:16])+".json")
}

// TestPutGetRoundTrip: the basic contract, plus stats accounting.
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := testResult(t, 7)
	key := r.Cfg.Key()

	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Put(key, r); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got.Cycles != r.Cycles || got.IPC != r.IPC || got.Cfg.Key() != key {
		t.Errorf("stored entry came back different: %+v vs %+v", got, r)
	}
}

// TestPersistsAcrossHandles: a second Open over the same directory —
// the cross-process case — sees the first handle's entries.
func TestPersistsAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := testResult(t, 7)
	if err := c1.Put(r.Cfg.Key(), r); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(r.Cfg.Key()); !ok {
		t.Error("fresh handle missed an entry persisted by another handle")
	}
}

// TestCorruptEntryIsMiss: unparsable JSON, a truncated entry, a valid
// envelope holding a broken result body, and a zero-byte file must all
// read as misses, never errors, and must be overwritable by a fresh
// Put.
func TestCorruptEntryIsMiss(t *testing.T) {
	r := testResult(t, 7)
	key := r.Cfg.Key()
	corruptions := map[string]func(valid []byte) []byte{
		"garbage":       func([]byte) []byte { return []byte("not json at all {{{") },
		"truncated":     func(valid []byte) []byte { return valid[:len(valid)/2] },
		"empty":         func([]byte) []byte { return nil },
		"null-envelope": func([]byte) []byte { return []byte("null") },
		"bad-body": func([]byte) []byte {
			return fmt.Appendf(nil, `{"fingerprint":%q,"key":%q,"result":{"bogus":1}}`, Fingerprint(), key)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(key, r); err != nil {
				t.Fatal(err)
			}
			p := entryPath(dir, Fingerprint(), key)
			valid, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("test's path scheme diverged from the cache's: %v", err)
			}
			if err := os.WriteFile(p, corrupt(valid), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatal("corrupt entry reported as a hit")
			}
			// The slot must heal on the next write.
			if err := c.Put(key, r); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); !ok {
				t.Error("rewritten entry still missing")
			}
		})
	}
}

// TestWrongFingerprintIsMiss: entries written under another simulator
// version are invisible, both via a foreign-fingerprint handle and via
// a relabelled envelope smuggled into the current fingerprint's slot.
func TestWrongFingerprintIsMiss(t *testing.T) {
	dir := t.TempDir()
	r := testResult(t, 7)
	key := r.Cfg.Key()

	old, err := OpenAt(dir, "cachefmt-v0+mediasmt-sim-v0")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Put(key, r); err != nil {
		t.Fatal(err)
	}
	cur, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get(key); ok {
		t.Error("entry from an older fingerprint reported as a hit")
	}

	// Copy the old entry into the current fingerprint's path without
	// relabelling: the envelope's embedded fingerprint must veto it.
	oldBytes, err := os.ReadFile(entryPath(dir, "cachefmt-v0+mediasmt-sim-v0", key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath(dir, Fingerprint(), key), oldBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get(key); ok {
		t.Error("mislabelled envelope reported as a hit")
	}
}

// TestWrongKeyEnvelopeIsMiss: an entry whose envelope names a
// different key (a moved file, or a hash collision) must miss.
func TestWrongKeyEnvelopeIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := testResult(t, 7)
	key := r.Cfg.Key()
	if err := c.Put(key, r); err != nil {
		t.Fatal(err)
	}
	src := entryPath(dir, Fingerprint(), key)
	dst := entryPath(dir, Fingerprint(), key+"/other")
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key + "/other"); ok {
		t.Error("entry with mismatched envelope key reported as a hit")
	}
}

// TestConcurrentWriters: many goroutines hammering the same key must
// finish without error and leave one valid, readable entry
// (last-write-wins through atomic rename).
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	r := testResult(t, 7)
	key := r.Cfg.Key()
	const writers = 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Open(dir) // one handle per writer, like separate processes
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 8; j++ {
				if err := c.Put(key, r); err != nil {
					errs <- err
					return
				}
				if _, ok := c.Get(key); !ok {
					errs <- fmt.Errorf("read of a key under concurrent write missed")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || got.Cycles != r.Cycles {
		t.Errorf("after concurrent writes: ok=%v, entry mismatched", ok)
	}
	// No temp files may survive the stampede.
	des, err := os.ReadDir(filepath.Dir(entryPath(dir, Fingerprint(), key)))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), ".put-") {
			t.Errorf("leaked temp file %s", de.Name())
		}
	}
}

// TestPrune: entries from older fingerprints are dropped, the current
// fingerprint's survive, and the removal count reports entries, not
// directories.
func TestPrune(t *testing.T) {
	dir := t.TempDir()
	r := testResult(t, 7)
	r2 := testResult(t, 8)

	cur, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Put(r.Cfg.Key(), r); err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"cachefmt-v0+a", "cachefmt-v0+b"} {
		old, err := OpenAt(dir, fp)
		if err != nil {
			t.Fatal(err)
		}
		if err := old.Put(r.Cfg.Key(), r); err != nil {
			t.Fatal(err)
		}
		if err := old.Put(r2.Cfg.Key(), r2); err != nil {
			t.Fatal(err)
		}
	}
	// Orphaned temp files — a killed writer's leftovers — must not be
	// counted as entries, and the kept fingerprint's stale ones must be
	// swept while a fresh one (a live writer mid-Put) survives.
	keptDir := filepath.Dir(entryPath(dir, Fingerprint(), "x"))
	oldTmp := filepath.Join(filepath.Dir(entryPath(dir, "cachefmt-v0+a", "x")), ".put-orphan")
	keptTmp := filepath.Join(keptDir, ".put-orphan")
	liveTmp := filepath.Join(keptDir, ".put-live")
	for _, p := range []string{oldTmp, keptTmp, liveTmp} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * tmpSweepAge)
	for _, p := range []string{oldTmp, keptTmp} {
		if err := os.Chtimes(p, stale, stale); err != nil {
			t.Fatal(err)
		}
	}

	n, err := Prune(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("pruned %d entries, want 4 (two fingerprints × two entries, temp files uncounted)", n)
	}
	if _, ok := cur.Get(r.Cfg.Key()); !ok {
		t.Error("prune dropped a current-fingerprint entry")
	}
	if _, err := os.Stat(keptTmp); err == nil {
		t.Error("prune left a stale orphaned temp file in the kept fingerprint directory")
	}
	if _, err := os.Stat(liveTmp); err != nil {
		t.Error("prune swept a fresh temp file a live writer may still rename")
	}
	// Idempotent.
	if n, err = Prune(dir); err != nil || n != 0 {
		t.Errorf("second prune = (%d, %v), want (0, nil)", n, err)
	}
	// A directory that never existed prunes cleanly.
	if n, err = Prune(filepath.Join(dir, "nope")); err != nil || n != 0 {
		t.Errorf("prune of missing dir = (%d, %v), want (0, nil)", n, err)
	}
}

// TestPruneLeavesForeignDirs: prune must only touch directories shaped
// like this package's fingerprint hashes — a user pointing -cache-dir
// at a shared location (say $XDG_CACHE_HOME itself) must never lose
// another tool's data.
func TestPruneLeavesForeignDirs(t *testing.T) {
	dir := t.TempDir()
	foreign := []string{
		"pip",                              // another tool's cache
		"go-build",                         // not hex
		"DEADBEEF00000000DEADBEEF00000000", // 32 chars but uppercase
		"0123456789abcdef",                 // hex but wrong length
	}
	for _, name := range foreign {
		if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name, "data"), []byte("precious"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := Prune(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("prune claimed %d removed entries among foreign dirs, want 0", n)
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name, "data")); err != nil {
			t.Errorf("prune destroyed foreign directory %s: %v", name, err)
		}
	}
}

// TestDefaultDirRespectsXDG: the conventional location follows
// $XDG_CACHE_HOME.
func TestDefaultDirRespectsXDG(t *testing.T) {
	t.Setenv("XDG_CACHE_HOME", "/tmp/xdg-test")
	if got, want := DefaultDir(), filepath.Join("/tmp/xdg-test", "mediasmt"); got != want {
		t.Errorf("DefaultDir() = %q, want %q", got, want)
	}
}

// TestOpenEmptyDir: opening or pruning "" (no resolvable cache
// location) errors instead of writing somewhere surprising.
func TestOpenEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
	if _, err := Prune(""); err == nil {
		t.Error("Prune(\"\") succeeded")
	}
}

// TestOpenIfEnabled: the shared CLI policy — disabled flag or empty
// dir is a clean nil, a real dir opens, an unusable dir errors.
func TestOpenIfEnabled(t *testing.T) {
	if c, err := OpenIfEnabled("", false); c != nil || err != nil {
		t.Errorf("empty dir: got (%v, %v), want (nil, nil)", c, err)
	}
	if c, err := OpenIfEnabled(t.TempDir(), true); c != nil || err != nil {
		t.Errorf("disabled: got (%v, %v), want (nil, nil)", c, err)
	}
	if c, err := OpenIfEnabled(t.TempDir(), false); c == nil || err != nil {
		t.Errorf("enabled: got (%v, %v), want open cache", c, err)
	}
	if _, err := OpenIfEnabled("/proc/nope", false); err == nil {
		t.Error("unusable dir must error so callers can warn")
	}
}

// TestPutErrorWritesNothing: a failed Put — here a nil result that
// cannot encode — returns its error and leaves neither an entry nor a
// temp file behind; a healthy Put to the same key then lands.
func TestPutErrorWritesNothing(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", nil); err == nil || !strings.HasPrefix(err.Error(), "cache: ") {
		t.Fatalf("Put(nil result) = %v, want a cache: error", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("failed Put left a readable entry")
	}
	if ents, err := os.ReadDir(c.fpDir); err != nil || len(ents) != 0 {
		t.Errorf("failed Put left %d files (%v), want none", len(ents), err)
	}
	if err := c.Put("k", &sim.Result{Cfg: sim.Config{Threads: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k"); !ok {
		t.Error("healthy Put after a failed one missed")
	}
}

// TestWriteAtomic: a write lands whole under its final name; a write
// whose rename fails (the target is a directory) returns the error and
// removes its temp file.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := WriteAtomic(path, ".w-", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "data" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if err := os.Mkdir(filepath.Join(dir, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(filepath.Join(dir, "d"), ".w-", []byte("data")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".w-") {
			t.Errorf("failed write left temp file %s", e.Name())
		}
	}
}
