package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro/internal/circuit"
)

// HashBench returns the content address of a circuit: the hex SHA-256 of its
// .bench text.  Clients hash the exact bytes they would submit, so a second
// submission of the same design can reference the hash alone and skip both
// the upload and the parse+levelize.
func HashBench(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// Cache is the compiled-circuit cache: parsed, levelized circuits keyed by
// the SHA-256 of their .bench text.  Circuits are immutable and shared
// between jobs and workers, so a hit saves the whole parse+levelize (and,
// through circuit.Memo, the cached testability measures that hang off the
// circuit).  A simple bounded FIFO keeps memory flat under many distinct
// designs; hits and misses are counted, and TestHashFirstSubmitsHitTheCache
// holds the hit count of hash-first submissions.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	order   []string // insertion order, for FIFO eviction
	hits    int
	misses  int
}

type cacheEntry struct {
	c     *circuit.Circuit
	bench string
}

// NewCache builds a cache bounded to max circuits (0 selects 64).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 64
	}
	return &Cache{max: max, entries: make(map[string]*cacheEntry)}
}

// Get returns the compiled circuit for the hash, if cached.
func (ca *Cache) Get(hash string) (*circuit.Circuit, bool) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	e, ok := ca.entries[hash]
	if ok {
		ca.hits++
		return e.c, true
	}
	ca.misses++
	return nil, false
}

// Bench returns the .bench text of a cached circuit (workers fetch it to
// compile their own shared copy via their local cache).
func (ca *Cache) Bench(hash string) (string, bool) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if e, ok := ca.entries[hash]; ok {
		return e.bench, true
	}
	return "", false
}

// Compile parses+levelizes the bench text, stores it under its content hash
// and returns circuit and hash.  A hash already cached is returned as-is
// (hit); the text is only parsed on a miss.
func (ca *Cache) Compile(name, bench string) (*circuit.Circuit, string, error) {
	hash := HashBench(bench)
	ca.mu.Lock()
	if e, ok := ca.entries[hash]; ok {
		ca.hits++
		ca.mu.Unlock()
		return e.c, hash, nil
	}
	ca.misses++
	ca.mu.Unlock()

	// Parse outside the lock: compiling a big design must not stall hits.
	if name == "" {
		name = hash[:12]
	}
	c, err := circuit.ParseBench(name, strings.NewReader(bench))
	if err != nil {
		return nil, "", fmt.Errorf("service: compiling circuit %s: %w", hash[:12], err)
	}

	ca.mu.Lock()
	defer ca.mu.Unlock()
	if e, ok := ca.entries[hash]; ok {
		return e.c, hash, nil // a concurrent compile won the race; share its copy
	}
	for len(ca.order) >= ca.max {
		oldest := ca.order[0]
		ca.order = ca.order[1:]
		delete(ca.entries, oldest)
	}
	ca.entries[hash] = &cacheEntry{c: c, bench: bench}
	ca.order = append(ca.order, hash)
	return c, hash, nil
}

// Stats returns the hit/miss counters.
func (ca *Cache) Stats() (hits, misses int) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.hits, ca.misses
}
