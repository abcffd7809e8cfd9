package serve

import (
	"container/list"
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"sortinghat/ftype"
	"sortinghat/internal/data"
)

// cacheKey is the 128-bit content hash of one raw column (columnKey).
type cacheKey [16]byte

// colHash is MurmurHash3 x64_128 with seed 0 over a column's framed
// byte stream (see columnKey), streamed: each length prefix and string is
// appended to a small block buffer on the caller's stack, and full
// buffers are mixed 16 bytes per step in one tight loop. Appending a cell
// costs an 8-byte store for the prefix and two overlapping word stores
// for its bytes, so short cells do not pay a call and a multiply per
// byte as byte-at-a-time FNV did. The result is bit-identical to the reference MurmurHash3_x64_128
// of the concatenated stream (TestColumnKeyMatchesReference pins this).
// The seed is a constant, not per process like hash/maphash: the gateway
// routes by this hash and each replica keys its cache by it, so every
// process must agree.
type colHash struct {
	h1, h2 uint64
	total  uint64 // bytes consumed so far
	n      int    // bytes pending in buf, at most hashBufLen
	buf    [hashBufLen]byte
}

// hashBufLen is how many stream bytes colHash buffers between flushes.
const hashBufLen = 256

// MurmurHash3 x64_128 multiplication constants.
const (
	murmurC1 = 0x87c37b91114253d5
	murmurC2 = 0x4cf5ad432745937f
)

// writeString feeds s preceded by its big-endian 8-byte length: the
// length-prefixed framing columnKey defines.
func (h *colHash) writeString(s string) {
	h.total += 8 + uint64(len(s))
	if h.n+8+len(s) > hashBufLen {
		h.writeSlow(s)
		return
	}
	b := h.buf[h.n:]
	binary.BigEndian.PutUint64(b, uint64(len(s)))
	b = b[8:]
	// Strings up to 16 bytes, most cells, are moved as two overlapping
	// loads and stores each instead of a copy call.
	switch n := len(s); {
	case n > 16:
		copy(b, s)
	case n >= 8:
		binary.LittleEndian.PutUint64(b, le64(s))
		binary.LittleEndian.PutUint64(b[n-8:], le64(s[n-8:]))
	case n >= 4:
		binary.LittleEndian.PutUint32(b, le32(s))
		binary.LittleEndian.PutUint32(b[n-4:], le32(s[n-4:]))
	case n > 0:
		b[0], b[n/2], b[n-1] = s[0], s[n/2], s[n-1]
	}
	h.n += 8 + len(s)
}

// writeSlow is writeString when the prefix and s overflow buf: it
// flushes first, and again each time buf fills.
func (h *colHash) writeSlow(s string) {
	h.flush()
	binary.BigEndian.PutUint64(h.buf[h.n:], uint64(len(s)))
	h.n += 8
	for {
		c := copy(h.buf[h.n:hashBufLen], s)
		h.n += c
		if c == len(s) {
			return
		}
		s = s[c:]
		h.flush()
	}
}

// le64 and le32 read the first 8 or 4 bytes of s as a little-endian word.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func le32(s string) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// flush mixes every complete 16-byte block of buf and moves the
// remainder (under 16 bytes) to its front.
func (h *colHash) flush() {
	h1, h2 := h.h1, h.h2
	blocks := h.buf[:h.n&^15]
	for len(blocks) >= 16 {
		k1 := binary.LittleEndian.Uint64(blocks)
		k2 := binary.LittleEndian.Uint64(blocks[8:])
		blocks = blocks[16:]

		k1 *= murmurC1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= murmurC2
		h1 ^= k1
		h1 = bits.RotateLeft64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= murmurC2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= murmurC1
		h2 ^= k2
		h2 = bits.RotateLeft64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}
	h.h1, h.h2 = h1, h2
	h.n = copy(h.buf[:], h.buf[h.n&^15:h.n])
}

// sum mixes the pending tail and the length in, Murmur's finalization,
// and returns h1 then h2 as little-endian bytes (the byte order of the
// published MurmurHash3_x64_128 digests).
func (h *colHash) sum() cacheKey {
	h.flush()
	var k1, k2 uint64
	for i := h.n - 1; i >= 0; i-- {
		if i >= 8 {
			k2 = k2<<8 | uint64(h.buf[i])
		} else {
			k1 = k1<<8 | uint64(h.buf[i])
		}
	}
	h1, h2 := h.h1, h.h2
	if h.n > 8 {
		k2 *= murmurC2
		k2 = bits.RotateLeft64(k2, 33)
		h2 ^= k2 * murmurC1
	}
	if h.n > 0 {
		k1 *= murmurC1
		k1 = bits.RotateLeft64(k1, 31)
		h1 ^= k1 * murmurC2
	}
	h1 ^= h.total
	h2 ^= h.total
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	var k cacheKey
	binary.LittleEndian.PutUint64(k[:8], h1)
	binary.LittleEndian.PutUint64(k[8:], h2)
	return k
}

// fmix64 is Murmur's 64-bit finalization mix.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// columnKey hashes a column's attribute name and cell values. Every string
// is length-prefixed so concatenations cannot collide ("ab"+"c" vs
// "a"+"bc"), and the name is hashed first so renamed copies of the same
// values key differently (the attribute name feeds the model's bigram
// features, so it must be part of the identity).
func columnKey(col *data.Column) cacheKey {
	var h colHash
	h.writeString(col.Name)
	for _, v := range col.Values {
		h.writeString(v)
	}
	return h.sum()
}

// ColumnHash returns the 128-bit content hash of a column (MurmurHash3
// x64_128 over its length-prefixed name and cells): the same hash the
// prediction cache keys on, minus the model-version component. The
// gateway tier (internal/gateway) routes columns across replicas by this
// hash, so gateway shard ownership and replica cache identity agree by
// construction — a column always lands on the replica whose LRU already
// holds it.
func ColumnHash(col *data.Column) [16]byte { return columnKey(col) }

// versionedKey is the full prediction-cache key: the column's content
// hash plus the model swap sequence number it was predicted under. A hot
// reload (Server.Reload) bumps the sequence, so entries predicted by the
// previous model can never answer a lookup again — including entries
// inserted by in-flight workers that loaded the old model before the
// swap (they insert under the old sequence, which no new lookup uses).
type versionedKey struct {
	seq uint64
	key cacheKey
}

// cachedPrediction is the immutable value stored per column hash. Probs is
// shared between the cache and every response built from it and must never
// be mutated after insertion.
type cachedPrediction struct {
	Type  ftype.FeatureType
	Probs []float64
}

// predCache is a mutex-guarded LRU over column content hashes. A nil
// *predCache is a valid always-miss cache, which is how caching is
// disabled.
type predCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	byID      map[versionedKey]*list.Element
	evictions atomic.Int64 // lifetime LRU evictions (previously silent)
}

// lruEntry is the list payload: the key doubles back so eviction can
// delete from the map.
type lruEntry struct {
	key versionedKey
	val cachedPrediction
}

// newPredCache returns an LRU holding up to capacity entries, or nil
// (caching disabled) when capacity is not positive.
func newPredCache(capacity int) *predCache {
	if capacity <= 0 {
		return nil
	}
	return &predCache{cap: capacity, ll: list.New(), byID: make(map[versionedKey]*list.Element, capacity)}
}

// get returns the cached prediction for k, promoting it to most recently
// used on a hit.
func (c *predCache) get(k versionedKey) (cachedPrediction, bool) {
	if c == nil {
		return cachedPrediction{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[k]
	if !ok {
		return cachedPrediction{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts (or refreshes) k, evicting the least recently used entry
// when the cache is full.
func (c *predCache) put(k versionedKey, v cachedPrediction) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[k]; ok {
		el.Value.(*lruEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.byID, oldest.Value.(*lruEntry).key)
			c.evictions.Add(1)
		}
	}
	c.byID[k] = c.ll.PushFront(&lruEntry{key: k, val: v})
}

// len reports the number of cached entries.
func (c *predCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// evicted reports the lifetime eviction count.
func (c *predCache) evicted() int64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}

// capacity reports the configured capacity (0 when caching is disabled).
func (c *predCache) capacity() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// purge drops every entry and reports how many were dropped. Reload
// calls it after a model swap: the swapped-out model's entries are
// already unreachable (the sequence in their key no longer matches), so
// purging only reclaims their memory early instead of waiting for LRU
// pressure. Purged entries do not count as evictions — eviction measures
// capacity pressure, not model turnover.
func (c *predCache) purge() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	clear(c.byID)
	return n
}
