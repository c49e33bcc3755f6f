// Package serve is the solver-as-a-service layer: an HTTP/JSON front
// end (Server) over the accelerator, built around a content-hashed cache
// of programmed engines (Cache). Programming a matrix into clusters —
// blocking, block encoding and core.NewCluster — is paid once per
// operator, so the cache amortizes it ReFloat-style across the many
// MVMs of one Krylov solve and across repeated solves on the same
// operator: matrices are keyed by a SHA-256 of their canonical CSR
// form plus the cluster configuration, programmed engines live in a
// size-bounded LRU weighted by the clusters they occupy, concurrent
// requests for the same uncached matrix are deduplicated so programming
// happens once, and each cache entry is a small lease pool of forked
// engines (shared programmed state, private scratch) so independent
// requests on the same matrix run in parallel.
package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"memsci/internal/accel"
	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/sparse"
)

// Fingerprint returns the cache key for a (matrix, cluster config, seed)
// triple: "sha256:" plus the hex digest of the canonical CSR form —
// dimensions, row pointers, column indices, and the IEEE-754 bit
// patterns of the values — concatenated with a canonical rendering of
// the configuration. CSR produced by COO.ToCSR is canonical (sorted
// column indices, duplicates summed), so any two equal operators hash
// identically regardless of the entry order they were assembled from.
func Fingerprint(m *sparse.CSR, cfg core.ClusterConfig, seed int64) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(m.Rows()))
	word(uint64(m.Cols()))
	for _, p := range m.RowPtr {
		word(uint64(p))
	}
	for _, j := range m.ColIdx {
		word(uint64(j))
	}
	for _, v := range m.Vals {
		word(math.Float64bits(v))
	}
	fmt.Fprintf(h, "|cfg=%+v|seed=%d", cfg, seed)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Cache capacity defaults.
const (
	// DefaultMaxClusters models the chip's crossbar substrate: 16
	// clusters per bank × 128 banks (§III, §VI).
	DefaultMaxClusters = 2048
	// DefaultPoolSize is the per-entry lease-pool bound.
	DefaultPoolSize = 4
)

// CacheConfig sizes an engine cache.
type CacheConfig struct {
	// MaxClusters bounds the total programmed clusters held across all
	// cached entries, whatever configuration each was programmed with —
	// a server's direct and refine engines share it, as they share the
	// chip; least-recently-used entries are evicted past it
	// (≤0 = DefaultMaxClusters). A single entry larger than the bound
	// is still admitted as the sole resident.
	MaxClusters int
	// PoolSize bounds each entry's lease pool (≤0 = DefaultPoolSize).
	// The first engine of a pool is programmed; the rest are forks that
	// share its programmed planes and cost no programming.
	PoolSize int
	// EngineParallelism overrides Engine.Parallelism on programmed
	// engines (0 keeps the engine default): the workers a batched solve
	// (Engine.ApplyBatch) spreads its right-hand sides over. A serving
	// process handling many concurrent solves typically wants 1 to
	// avoid oversubscribing the CPUs.
	EngineParallelism int
}

// Cache is a content-addressed store of programmed engines. It may hold
// engines of several cluster configurations (a server's direct and
// refine engines): each entry is programmed with the configuration its
// key was computed from, and all of them share one cluster budget. All
// methods are safe for concurrent use.
type Cache struct {
	// ccfg is the configuration Acquire fingerprints and programs with.
	ccfg core.ClusterConfig
	seed int64
	// refresh, when non-nil, is armed on every programmed engine; forks
	// inherit it through Engine.Fork. Set by serve.New before first use.
	refresh *accel.RefreshPolicy

	maxClusters int
	poolSize    int
	par         int

	mu       sync.Mutex
	byKey    map[string]*list.Element
	lru      *list.List // front = most recently used; values are *entry
	clusters int
	inflight map[string]*flight

	hits         atomic.Int64
	misses       atomic.Int64
	coalesced    atomic.Int64
	evictions    atomic.Int64
	programmings atomic.Int64
	forks        atomic.Int64
}

// NewCache returns an empty cache whose Acquire programs engines with
// the given cluster configuration and seed base.
func NewCache(cfg CacheConfig, ccfg core.ClusterConfig, seed int64) *Cache {
	if cfg.MaxClusters <= 0 {
		cfg.MaxClusters = DefaultMaxClusters
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = DefaultPoolSize
	}
	return &Cache{
		ccfg:        ccfg,
		seed:        seed,
		maxClusters: cfg.MaxClusters,
		poolSize:    cfg.PoolSize,
		par:         cfg.EngineParallelism,
		byKey:       make(map[string]*list.Element),
		lru:         list.New(),
		inflight:    make(map[string]*flight),
	}
}

// flight is one in-progress programming; concurrent requests for the
// same key wait on done instead of programming again (singleflight).
type flight struct {
	done chan struct{}
	ent  *entry
	err  error
}

// entry is one cached matrix: the programmed base engine plus a lease
// pool of at most poolSize engines. idle holds the engines not leased
// out, the base engine first; spare holds one token per engine not yet
// forked from it. A lease takes an idle engine when there is one and
// forks only when none is, so sequential traffic reuses one engine;
// waiting for a free engine is a context-aware channel receive.
type entry struct {
	key    string
	weight int
	base   *accel.Engine
	idle   chan *accel.Engine
	spare  chan struct{}
}

// Lease is exclusive use of one programmed engine; callers must call
// Release exactly once when done (extra calls are ignored).
type Lease struct {
	// Engine is bit-identical to a freshly programmed engine for the
	// leased matrix. It is exclusively owned until Release.
	Engine *accel.Engine
	// Key is the cache key of the matrix.
	Key string
	// Hit reports whether the matrix was already programmed (or being
	// programmed by a concurrent request): no cluster programming was
	// initiated on behalf of this acquisition.
	Hit bool

	ent      *entry
	released atomic.Bool
}

// Release returns the engine to its entry's lease pool.
func (l *Lease) Release() {
	if l == nil || l.released.Swap(true) {
		return
	}
	l.ent.idle <- l.Engine
}

// Acquire leases a programmed engine for the matrix, programming it on
// a miss. Concurrent acquisitions of the same uncached matrix program
// it exactly once: one request programs, the rest wait on the flight and
// then lease from the resulting pool. The context bounds both the wait
// for an in-progress programming and the wait for a free pool engine.
func (c *Cache) Acquire(ctx context.Context, m *sparse.CSR) (*Lease, error) {
	return c.acquire(ctx, Fingerprint(m, c.ccfg, c.seed), c.ccfg, m)
}

// acquire is Acquire for a matrix its caller already fingerprinted: key
// must be Fingerprint(m, ccfg, seed) with this cache's seed, and a miss
// programs m with ccfg. The key hashes the configuration, so entries of
// different configurations never collide.
func (c *Cache) acquire(ctx context.Context, key string, ccfg core.ClusterConfig, m *sparse.CSR) (*Lease, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		ent := el.Value.(*entry)
		c.hits.Add(1)
		c.mu.Unlock()
		return c.lease(ctx, ent, true)
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("serve: waiting for programming of %s: %w", key, ctx.Err())
		}
		if fl.err != nil {
			return nil, fl.err
		}
		c.coalesced.Add(1)
		return c.lease(ctx, fl.ent, true)
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.misses.Add(1)
	c.mu.Unlock()

	ent, err := c.program(key, ccfg, m)
	fl.ent, fl.err = ent, err
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.byKey[key] = c.lru.PushFront(ent)
		c.clusters += ent.weight
		c.evictLocked()
	}
	c.mu.Unlock()
	close(fl.done)
	if err != nil {
		return nil, err
	}
	return c.lease(ctx, ent, false)
}

// program preprocesses and programs a matrix into a fresh entry. This is
// the only place cluster programming happens; pool growth uses forks.
func (c *Cache) program(key string, ccfg core.ClusterConfig, m *sparse.CSR) (*entry, error) {
	plan, err := blocking.Preprocess(m, blocking.DefaultSubstrate())
	if err != nil {
		return nil, fmt.Errorf("serve: preprocess: %w", err)
	}
	eng, err := accel.NewEngine(plan, ccfg, c.seed)
	if err != nil {
		return nil, fmt.Errorf("serve: program: %w", err)
	}
	if c.par > 0 {
		eng.Parallelism = c.par
	}
	eng.SetRefreshPolicy(c.refresh)
	c.programmings.Add(1)
	weight := eng.Clusters()
	if weight == 0 {
		// Fully unblocked matrices occupy no crossbars but still hold
		// the plan's CSR remainder; give them a nominal footprint so
		// the LRU can cycle them out.
		weight = 1
	}
	ent := &entry{
		key:    key,
		weight: weight,
		base:   eng,
		idle:   make(chan *accel.Engine, c.poolSize),
		spare:  make(chan struct{}, c.poolSize-1),
	}
	ent.idle <- eng
	for i := 1; i < c.poolSize; i++ {
		ent.spare <- struct{}{}
	}
	return ent, nil
}

// lease takes an idle engine, or else a spare token, which it
// materializes into a fork of the entry's base engine (zero programming
// cost; see Engine.Fork), or else waits for a release. Spare tokens are
// never returned, so once none is left a wait can only end in a release
// or the context's end.
func (c *Cache) lease(ctx context.Context, ent *entry, hit bool) (*Lease, error) {
	var eng *accel.Engine
	select {
	case eng = <-ent.idle:
	default:
		select {
		case <-ent.spare:
			eng = ent.base.Fork()
			c.forks.Add(1)
		default:
			select {
			case eng = <-ent.idle:
			case <-ctx.Done():
				return nil, fmt.Errorf("serve: waiting for engine lease on %s: %w", ent.key, ctx.Err())
			}
		}
	}
	return &Lease{Engine: eng, Key: ent.key, Hit: hit, ent: ent}, nil
}

// evictLocked drops least-recently-used entries until the cluster budget
// holds, always keeping at least one resident (an oversized matrix may
// occupy the cache alone). Callers hold c.mu. Outstanding leases on an
// evicted entry stay valid; their releases land in the orphaned pool,
// which is garbage-collected with the entry.
func (c *Cache) evictLocked() {
	for c.clusters > c.maxClusters && c.lru.Len() > 1 {
		el := c.lru.Back()
		ent := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.byKey, ent.key)
		c.clusters -= ent.weight
		c.evictions.Add(1)
	}
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	// Entries and Clusters describe current residency.
	Entries  int `json:"entries"`
	Clusters int `json:"clusters"`
	// Hits counts acquisitions served from a resident entry; Misses
	// counts acquisitions that initiated programming; Coalesced counts
	// acquisitions that waited on another request's programming.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
	// Programmings counts engines programmed from scratch; Forks counts
	// pool engines materialized by sharing programmed planes. A cached
	// or coalesced solve increments neither Programmings nor, once the
	// pool is warm, Forks.
	Programmings int64 `json:"programmings"`
	Forks        int64 `json:"forks"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries, clusters := c.lru.Len(), c.clusters
	c.mu.Unlock()
	return CacheStats{
		Entries:      entries,
		Clusters:     clusters,
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Coalesced:    c.coalesced.Load(),
		Evictions:    c.evictions.Load(),
		Programmings: c.programmings.Load(),
		Forks:        c.forks.Load(),
	}
}
