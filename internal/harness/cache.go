package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// DefaultCacheDir is where the CLIs keep results between invocations.
const DefaultCacheDir = ".pacifier-cache"

// Cache is the on-disk result store: one JSON file per finished job,
// named by the job's spec hash. Because the hash folds in cacheVersion,
// entries written by an incompatible harness are simply never looked up;
// entries whose envelope fails validation are treated as misses. The
// cache is safe for concurrent use from one sweep (each key is written
// atomically via rename) but performs no cross-process locking beyond
// that.
type Cache struct {
	dir string
}

// cacheEntry is the on-disk envelope.
type cacheEntry struct {
	Version  string  `json:"version"`
	SpecHash string  `json:"spec_hash"`
	Result   *Result `json:"result"`
}

// OpenCache opens (creating if needed) a result cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// Get looks a spec hash up, returning (result, true) on a valid hit.
// Any read, decode or validation failure is a miss, never an error: the
// job just runs again.
func (c *Cache) Get(hash string) (*Result, bool) {
	blob, err := os.ReadFile(c.path(hash))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if json.Unmarshal(blob, &e) != nil ||
		e.Version != cacheVersion || e.SpecHash != hash ||
		e.Result == nil || e.Result.SpecHash != hash {
		return nil, false
	}
	return e.Result, true
}

// Put stores a finished result under its spec hash, atomically
// (write-to-temp + rename), so a crashed or raced writer can never leave
// a torn entry behind.
func (c *Cache) Put(res *Result) error {
	if res == nil || res.SpecHash == "" {
		return fmt.Errorf("harness: cache Put needs a hashed result")
	}
	blob, err := json.Marshal(cacheEntry{Version: cacheVersion, SpecHash: res.SpecHash, Result: res})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(res.SpecHash))
}

// Len counts the entries currently stored.
func (c *Cache) Len() int {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}
