package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"seaice/internal/raster"
)

// CacheKey identifies a classification result by content: a SHA-256
// over what the cached answer depends on. One LRU holds two key spaces:
//
//   - tile keys (TileKey): one pre-filtered tile → that tile's labels.
//     A filtered tile's label depends on the tile alone, so identical
//     imagery (repeated open-water tiles, overlapping campaigns) shares
//     an entry regardless of the scene it came from. Used by filtered=1
//     requests — the coordinator's shards — and by the coordinator
//     itself for ring placement and its fallback cache.
//   - scene keys (SceneKey): one unfiltered request image → its stitched
//     label map. The thin-cloud filter works at scene scale, so an
//     unfiltered tile's label depends on the whole image around it; the
//     request's input pixels are the only sound key, and hashing them
//     lets a hit answer before the filter runs.
//
// Both are derived by contentKey from one stream — domain byte, model
// name length, dims, model name, pixels — so no model name or image can
// make a key of one space read as a key of the other. (This re-derived
// the tile keys: ring placement of a given tile differs from earlier
// builds, which no test or stored artifact pins; keys never cross a
// process boundary, so mixed-version clusters stay correct.)
type CacheKey [sha256.Size]byte

const (
	keyDomainTile  = 'T'
	keyDomainScene = 'S'
)

// TileKey hashes one pre-filtered tile for the given model name.
func TileKey(model string, tile *raster.RGB) CacheKey {
	return contentKey(keyDomainTile, model, tile)
}

// SceneKey hashes one unfiltered request image for the given model name.
func SceneKey(model string, img *raster.RGB) CacheKey {
	return contentKey(keyDomainScene, model, img)
}

// contentKey hashes a fixed-width header (domain, model name length,
// width, height) followed by the model name and the pixels; the header
// fixes where each variable-length part ends.
func contentKey(domain byte, model string, img *raster.RGB) CacheKey {
	var hdr [13]byte
	hdr[0] = domain
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(model)))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(img.W))
	binary.LittleEndian.PutUint32(hdr[9:], uint32(img.H))
	h := sha256.New()
	h.Write(hdr[:])
	h.Write([]byte(model))
	h.Write(img.Pix)
	var k CacheKey
	h.Sum(k[:0])
	return k
}

// Cache is a thread-safe LRU over classification results, bounded by
// the label pixels it holds rather than by entry count: an entry may be
// one tile or a whole stitched scene. Stored label maps are shared
// across callers and MUST be treated as read-only. Hit/miss counters
// are tile-weighted (see Get), so the hit rate reads "share of tiles
// answered without a forward pass" whichever key space served them.
type Cache struct {
	mu       sync.Mutex
	capacity int // label pixels
	used     int // label pixels resident
	ll       *list.List
	items    map[CacheKey]*list.Element
	hits     int64
	misses   int64
}

type cacheEntry struct {
	key    CacheKey
	labels *raster.Labels
}

// NewCache returns an LRU holding the results of up to tiles
// tileSize×tileSize tiles — tiles × tileSize² label pixels, however
// they are grouped into entries; tiles <= 0 returns a disabled cache
// (all lookups miss, stores are dropped).
func NewCache(tiles, tileSize int) *Cache {
	return &Cache{
		capacity: max(tiles, 0) * tileSize * tileSize,
		ll:       list.New(),
		items:    make(map[CacheKey]*list.Element),
	}
}

// Enabled reports whether the cache stores anything at all; callers can
// skip key hashing entirely when it does not.
func (c *Cache) Enabled() bool { return c.capacity > 0 }

// Get returns the cached labels for key, marking the entry most
// recently used. tiles is how many tiles the answer stands for (1 for a
// tile key, the request's tile count for a scene key); the hit or miss
// counter advances by it.
func (c *Cache) Get(key CacheKey, tiles int) (*raster.Labels, bool) {
	if c.capacity <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses += int64(tiles)
		return nil, false
	}
	c.hits += int64(tiles)
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).labels, true
}

// Put stores labels under key, evicting least recently used entries
// until the resident pixels fit the capacity again. A label map larger
// than the whole capacity is not stored (and evicts nothing).
func (c *Cache) Put(key CacheKey, labels *raster.Labels) {
	n := len(labels.Pix)
	if c.capacity <= 0 || n > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.used += n - len(e.labels.Pix)
		e.labels = labels
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, labels: labels})
		c.used += n
	}
	for c.used > c.capacity {
		oldest := c.ll.Back()
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.used -= len(e.labels.Pix)
	}
}

// Len reports the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counters returns the cumulative tile-weighted hit/miss counts.
func (c *Cache) Counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
