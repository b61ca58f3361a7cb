package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mediasmt/internal/cache"
)

// JobRecord is one journalled submission: everything needed to re-run
// the job after a restart with the same id and options. It is the
// durable twin of the in-memory job — present exactly while the job
// is unsettled.
type JobRecord struct {
	ID          string    `json:"id"`
	Seq         int64     `json:"seq"`
	Experiments []string  `json:"experiments"`
	Scale       float64   `json:"scale"`
	Seed        uint64    `json:"seed"`
	Workers     int       `json:"workers"`
	MaxCycles   int64     `json:"max_cycles,omitempty"`
	Priority    int       `json:"priority,omitempty"`
	Created     time.Time `json:"created"`
	// Fingerprint records which simulator version accepted the job —
	// diagnostic only: a job is a request, not a result, so recovery
	// re-admits it under any version and the cache decides what must
	// re-execute.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// journalTmpPrefix marks in-flight journal writes (cache.WriteAtomic
// temp files); Load never reads them, and OpenJournal sweeps the ones
// a killed process left behind.
const journalTmpPrefix = ".job-"

// seqFile persists the submission counter's high-water mark so job
// ids stay unique across restarts even when every journalled job has
// settled (and its record is gone).
const seqFile = "_seq"

// Journal persists submitted jobs next to the on-disk result cache so
// a restarted expsd re-admits what it was asked to do: a record is
// appended at submission and removed when the job settles, making the
// directory's contents exactly the unsettled jobs. Writes are atomic
// (cache.WriteAtomic, the result cache's own write), reads are
// corruption-tolerant (a truncated or unparsable record is skipped,
// never an error), and all methods are safe for concurrent use by the
// one process that owns the directory.
type Journal struct {
	dir   string
	seqMu sync.Mutex // serializes bumpSeq's read-compare-write of _seq
}

// OpenJournal opens (creating as needed) a journal rooted at dir and
// removes the temp files of writes a killed process never renamed
// (cache.SweepTemp: only ones old enough to have no writer left).
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("journal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	cache.SweepTemp(dir, journalTmpPrefix)
	return &Journal{dir: dir}, nil
}

// Dir reports the journal directory.
func (jl *Journal) Dir() string { return jl.dir }

func (jl *Journal) path(id string) string {
	return filepath.Join(jl.dir, id+".json")
}

// Append persists one submission record atomically and advances the
// durable sequence high-water mark. Errors are advisory to the
// server (a failed append only costs restart recovery for this job),
// but are always reported so the caller can count them.
func (jl *Journal) Append(rec JobRecord) error {
	if rec.ID == "" || rec.ID != filepath.Base(rec.ID) || strings.HasPrefix(rec.ID, ".") {
		return fmt.Errorf("journal: unusable job id %q", rec.ID)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("journal: encode record: %w", err)
	}
	if err := cache.WriteAtomic(jl.path(rec.ID), journalTmpPrefix, data); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return jl.bumpSeq(rec.Seq)
}

// Settle removes a settled job's record; a record already gone (a
// crash between settle and remove, or a double settle) is fine.
func (jl *Journal) Settle(id string) error {
	if err := os.Remove(jl.path(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Load returns every readable record sorted by submission sequence,
// plus the sequence high-water mark new submissions must stay above.
// Corrupt or foreign files are skipped — after a crash the journal
// must always load.
func (jl *Journal) Load() ([]JobRecord, int64, error) {
	des, err := os.ReadDir(jl.dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	var recs []JobRecord
	var maxSeq int64
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || strings.HasPrefix(name, journalTmpPrefix) {
			continue
		}
		if name == seqFile {
			if data, err := os.ReadFile(filepath.Join(jl.dir, name)); err == nil {
				if n, err := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64); err == nil && n > maxSeq {
					maxSeq = n
				}
			}
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(jl.dir, name))
		if err != nil {
			continue
		}
		var rec JobRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID == "" {
			continue // corrupt or foreign: skip, never fail the load
		}
		if rec.ID+".json" != name {
			continue // hand-renamed file: its identity is untrustworthy
		}
		recs = append(recs, rec)
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Seq != recs[j].Seq {
			return recs[i].Seq < recs[j].Seq
		}
		return recs[i].ID < recs[j].ID
	})
	return recs, maxSeq, nil
}

// bumpSeq raises the durable sequence high-water mark; it never
// lowers it (a concurrent append may have written a higher one).
func (jl *Journal) bumpSeq(seq int64) error {
	jl.seqMu.Lock()
	defer jl.seqMu.Unlock()
	path := filepath.Join(jl.dir, seqFile)
	if data, err := os.ReadFile(path); err == nil {
		if cur, err := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64); err == nil && cur >= seq {
			return nil
		}
	}
	if err := cache.WriteAtomic(path, journalTmpPrefix, []byte(strconv.FormatInt(seq, 10))); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
