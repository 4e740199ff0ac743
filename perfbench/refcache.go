package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// refCache stores reference-engine outputs on disk, keyed by the hash of the
// benchmark binary: the same binary recomputes the same reference, so a
// checkout pays the slow reference engine once per input, not once per run.
// Any change to the simulator's code changes the binary and so the key.
type refCache struct {
	dir string
}

func newRefCache(outDir, exeHash string) *refCache {
	return &refCache{dir: filepath.Join(outDir, "ref", exeHash[:16])}
}

// load fills v from the cached entry key, reporting whether it existed.
func (c *refCache) load(key string, v any) (bool, error) {
	b, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("reference cache %s: %w", key, err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		// A torn or foreign file: recompute rather than trust it.
		return false, nil
	}
	return true, nil
}

// store writes v under key atomically (temp file + rename).
func (c *refCache) store(key string, v any) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("reference cache: %w", err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("reference cache %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(c.dir, key+".*.tmp")
	if err != nil {
		return fmt.Errorf("reference cache %s: %w", key, err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("reference cache %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("reference cache %s: %w", key, err)
	}
	return os.Rename(tmp.Name(), filepath.Join(c.dir, key+".json"))
}

// get returns the cached value for key, computing and storing it on a miss.
func get[T any](c *refCache, key string, compute func() (T, error)) (T, error) {
	var v T
	ok, err := c.load(key, &v)
	if err != nil || ok {
		return v, err
	}
	v, err = compute()
	if err != nil {
		return v, err
	}
	return v, c.store(key, v)
}
