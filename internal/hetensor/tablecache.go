package hetensor

import (
	"container/list"
	"sync"
	"sync/atomic"

	"blindfl/internal/paillier"
)

// Persistent dot-table cache. A Straus window table depends only on the
// ciphertext bases it was built from — the columns (or rows) of an encrypted
// matrix — and some encrypted matrices recur in every batch of every epoch
// (inference-time weight copies, encrypted tables between refreshes) while
// most are used by exactly one kernel invocation (re-encrypted weight pieces,
// every streamed ⟦∇Z⟧ chunk). The cache keys tables by *ciphertext-matrix
// identity*: every CipherMatrix/PackedMatrix is minted a process-unique ID
// when it is created by encryption or received from the peer, and a table set
// is identified by (matrix ID, orientation, live-base set). IDs are never
// reused and accumulator matrices (whose cells mutate) carry ID 0, so a
// cached table can never go stale — refreshed weights arrive as a new matrix
// with a new ID and the old entries age out of the LRU.
//
// Admission materialises only what recurs: the first kernel invocation on a
// source records its ID in a small bounded ghost set (no tables, no eviction)
// and runs on per-call tables; the second builds and inserts; later ones hit.
// Cached tables amortize across the run rather than one kernel call, so they
// are built at a wider window than per-call tables (up to width 8: 6 digits
// for a 45-bit fixed-point scalar instead of 12 at width 4). Each base costs
// 2·(2^w−1) residues — its powers and its inverse's — all charged to the
// budget.
//
// The cache is process-wide and byte-budgeted: entries are evicted LRU-first
// the moment the budget is exceeded. A budget of 0 (the default) disables
// caching entirely; core.Config.TableCacheMB / model.Hyper.TableCacheMB /
// `blindfl-train -tablecache` set it per run. Stream chunks are single-use:
// the protocol receive paths hand them over anonymous (ID 0) on every
// transport; only fully assembled receives are minted an identity.

// matrixIDs mints process-unique ciphertext-matrix identities. ID 0 is
// reserved for uncacheable matrices (accumulators, row-slice views).
var matrixIDs atomic.Uint64

func nextMatrixID() uint64 { return matrixIDs.Add(1) }

// MintID assigns m a fresh process-unique identity, marking its ciphertexts
// as a stable base set for the dot-table cache. Called by the encryption
// constructors and the protocol receive paths; call it manually only for a
// matrix whose cells will never be replaced afterwards.
func (m *CipherMatrix) MintID() { m.id = nextMatrixID() }

// MintID is the packed-matrix analogue of CipherMatrix.MintID.
func (m *PackedMatrix) MintID() { m.id = nextMatrixID() }

// tableSource names the base-set family a kernel draws from: which matrix,
// and whether base vectors run along its columns or its rows.
type tableSource struct {
	id     uint64
	orient uint8
}

const (
	orientCol uint8 = iota // base vector g = column/group g of the matrix
	orientRow              // base vector g = row g of the matrix
)

// tableKey identifies one cached DotTables build: all base vectors of one
// source, over one live-base set.
type tableKey struct {
	src  tableSource
	crt  bool   // built in SecretOps dual-chain mode
	live uint64 // FNV-1a hash of the live base indices
}

// liveHash fingerprints the set of live (non-zero-exponent) base indices.
func liveHash(live []int) uint64 {
	h := uint64(1469598103934665603)
	for _, k := range live {
		h ^= uint64(k)
		h *= 1099511628211
	}
	return h
}

type tableEntry struct {
	key   tableKey
	tabs  *paillier.DotTables
	bytes int64
}

// ghostCap bounds the ghost set: the IDs of the most recent first sightings.
// Small enough to scan on a miss, far more than the single-use matrices (and
// stream chunks' worth of kernels) between two uses of one that recurs.
const ghostCap = 1024

// tableCache is the process-wide LRU. All fields are guarded by mu; the
// critical sections are map/list operations only, never table builds.
var tableCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[tableKey]*list.Element
	lru     list.List // front = most recently used
	hits    int64
	misses  int64
	evicted int64

	// Ghost set: matrix IDs seen once, tables not built; a ring, so the
	// oldest first sighting is forgotten first.
	ghosts    [ghostCap]uint64
	ghostNext int
}

// TableCacheStats reports the cache's effectiveness counters.
type TableCacheStats struct {
	Hits, Misses, Evicted int64
	Entries               int
	Bytes, Budget         int64
}

// SetTableCacheBudget sets the cache's byte budget and returns the previous
// one. Shrinking evicts LRU-first immediately; 0 disables caching and drops
// every entry.
func SetTableCacheBudget(budget int64) int64 {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	prev := tableCache.budget
	if budget < 0 {
		budget = 0
	}
	tableCache.budget = budget
	if tableCache.entries == nil {
		tableCache.entries = make(map[tableKey]*list.Element)
	}
	evictOverLocked()
	return prev
}

// TableCacheBudget returns the current byte budget (0 = disabled).
func TableCacheBudget() int64 {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	return tableCache.budget
}

// TableCacheStatsNow returns a snapshot of the cache counters.
func TableCacheStatsNow() TableCacheStats {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	return TableCacheStats{
		Hits: tableCache.hits, Misses: tableCache.misses, Evicted: tableCache.evicted,
		Entries: tableCache.lru.Len(), Bytes: tableCache.bytes, Budget: tableCache.budget,
	}
}

// ResetTableCache drops every entry and zeroes the counters, keeping the
// budget. Tests use it to isolate cold/warm measurements.
func ResetTableCache() {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	tableCache.entries = make(map[tableKey]*list.Element)
	tableCache.lru.Init()
	tableCache.bytes = 0
	tableCache.hits, tableCache.misses, tableCache.evicted = 0, 0, 0
	tableCache.ghosts = [ghostCap]uint64{}
}

// evictOverLocked drops LRU entries until the cache fits its budget.
func evictOverLocked() {
	for tableCache.bytes > tableCache.budget {
		back := tableCache.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*tableEntry)
		tableCache.lru.Remove(back)
		delete(tableCache.entries, e.key)
		tableCache.bytes -= e.bytes
		tableCache.evicted++
	}
}

// tableCacheGet returns the cached tables for key, bumping recency. On a
// miss, admit reports whether the source has been seen before — the caller
// should build and insert; a first sighting is only recorded in the ghost
// set, displacing the oldest ghost and nothing else.
func tableCacheGet(key tableKey) (tabs *paillier.DotTables, admit bool) {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	if el, ok := tableCache.entries[key]; ok {
		tableCache.hits++
		tableCache.lru.MoveToFront(el)
		return el.Value.(*tableEntry).tabs, false
	}
	tableCache.misses++
	for _, id := range tableCache.ghosts {
		if id == key.src.id {
			return nil, true
		}
	}
	tableCache.ghosts[tableCache.ghostNext] = key.src.id
	tableCache.ghostNext = (tableCache.ghostNext + 1) % ghostCap
	return nil, false
}

// tableCachePut inserts freshly built tables, evicting LRU entries over
// budget. Entries bigger than the whole budget are not cached. A concurrent
// build of the same key simply replaces the earlier entry (both are valid).
func tableCachePut(key tableKey, tabs *paillier.DotTables) {
	bytes := tabs.Bytes()
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	if bytes > tableCache.budget {
		return
	}
	if el, ok := tableCache.entries[key]; ok {
		old := el.Value.(*tableEntry)
		tableCache.bytes -= old.bytes
		tableCache.lru.Remove(el)
		delete(tableCache.entries, key)
	}
	e := &tableEntry{key: key, tabs: tabs, bytes: bytes}
	tableCache.entries[key] = tableCache.lru.PushFront(e)
	tableCache.bytes += bytes
	evictOverLocked()
}

// cacheWindow picks the Straus window for persistent tables: the widest
// width (≤ 8) at which the *whole invocation's* table set — all gpr base
// vectors of the source matrix, powers and inverse powers — fits half the
// budget, so two similarly-shaped matrices (a layer's two weight copies,
// say) can coexist. Reuse across a whole run amortizes the build cost, so
// this is deliberately wider than DotWindow's per-call choice — and when the
// budget cannot even afford the width a well-amortized per-call build would
// use, it returns 0: caching narrower tables would make every warm hit
// evaluate *slower* than the uncached tier, the opposite of the knob's
// contract, so the caller bypasses.
func cacheWindow(live, gpr, maxBits int, pk *paillier.PublicKey, budget int64) uint {
	floor := paillier.DotWindow(maxBits, 8) // the amortized per-call width
	for w := uint(8); w >= floor; w-- {
		if pk.DotTableBytes(gpr*live, w) <= budget/2 {
			return w
		}
	}
	return 0
}

// cachedTables resolves one kernel invocation's Straus tables through the
// cache, building (and inserting) them at the cache's window width when the
// source recurs. It returns nil when the cache does not serve the call —
// disabled, anonymous source (ID 0), a source seen for the first time, or a
// table set that would not fit at a width worth caching — in which case the
// caller builds per-call tables.
func cachedTables(pk *paillier.PublicKey, src tableSource, live []int, gpr, maxBits int,
	base func(k, g int) *paillier.Ciphertext) *paillier.DotTables {
	if src.id == 0 {
		return nil
	}
	budget := TableCacheBudget()
	if budget <= 0 {
		return nil
	}
	w := cacheWindow(len(live), gpr, maxBits, pk, budget)
	if w == 0 {
		return nil
	}
	key := tableKey{src: src, crt: paillier.SecretOpsFor(pk) != nil, live: liveHash(live)}
	tabs, admit := tableCacheGet(key)
	if admit {
		tabs = buildTables(pk, live, gpr, w, base)
		tableCachePut(key, tabs)
	}
	return tabs
}
