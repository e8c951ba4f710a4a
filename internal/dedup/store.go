package dedup

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count of NewStore: enough stripes that a
// worker-per-core fleet rarely collides on a shard lock, small enough
// that a per-repetition single-client store stays a handful of maps.
const DefaultShards = 64

// Store is a server-side content-addressed chunk store, sharded by
// hash prefix with one lock stripe per shard so concurrent clients
// Put/PutHashed without serialising on a single mutex. The zero value
// is not usable; call NewStore (or NewStoreSharded for an explicit
// shard count — NewStoreSharded(1) is the single-lock configuration).
//
// All methods are safe for concurrent use. Counters (StoredBytes,
// UniqueChunks, Hits) are per-shard atomics maintained under the
// shard lock but read lock-free: a read that overlaps writers returns
// some valid interleaving, and is exact once writers are quiescent.
//
// The lock is a plain sync.Mutex, not a RWMutex: every hot-path store
// operation (PutHashed, Claim) writes, so the RWMutex reader/writer
// bookkeeping was pure overhead — the one read-mostly consumer,
// counter aggregation, is served by the atomics instead. Size and
// claim share one map entry per chunk, so a fleet-day Claim costs a
// single map access instead of one per map.
type Store struct {
	shards []shard
	mask   uint32
}

// shard is one lock stripe. The struct is padded to its own cache
// lines so per-shard state on adjacent shards does not false-share
// under concurrent Put storms.
type shard struct {
	mu     sync.Mutex
	chunks map[Hash]int32 // content address → slab index of its entry
	slab   entrySlab
	bytes  atomic.Int64
	hits   atomic.Int64
	unique atomic.Int64
	_      [32]byte // pad the state to full cache lines
}

// entrySlab hand-allocates entries in fixed blocks so every *entry
// stays address-stable for the life of the store — the property
// ChunkRef relies on — while paying one heap allocation per block
// instead of one per chunk. Entries are addressed by a dense int32
// index; keeping the index (not the pointer) as the map value leaves
// both the map and the blocks pointer-free, so the garbage collector
// never scans the store's bulk state.
type entrySlab struct {
	blocks [][]entry
}

const (
	entrySlabBits  = 10
	entrySlabBlock = 1 << entrySlabBits
	entrySlabMask  = entrySlabBlock - 1
	// entrySlabMaxBlocks is the block count at which the int32 entry
	// index (block<<entrySlabBits | pos) would wrap negative.
	entrySlabMaxBlocks = 1 << (31 - entrySlabBits)
)

func (s *entrySlab) alloc() (int32, *entry) {
	last := len(s.blocks) - 1
	if last < 0 || len(s.blocks[last]) == entrySlabBlock {
		if len(s.blocks) == entrySlabMaxBlocks {
			panic(fmt.Sprintf("dedup: shard holds %d chunks, the int32 slab index limit (%d blocks of %d); use more shards",
				entrySlabMaxBlocks*entrySlabBlock, entrySlabMaxBlocks, entrySlabBlock))
		}
		s.blocks = append(s.blocks, make([]entry, 0, entrySlabBlock))
		last++
	}
	b := s.blocks[last]
	b = b[:len(b)+1]
	s.blocks[last] = b
	return int32(last<<entrySlabBits | (len(b) - 1)), &b[len(b)-1]
}

func (s *entrySlab) at(idx int32) *entry {
	return &s.blocks[idx>>entrySlabBits][idx&entrySlabMask]
}

// entry is everything the store knows about one chunk: its size and,
// during a fleet day, the earliest would-be uploader in fleet virtual
// time — the (instant, user) pair orders uploads the way a sequential
// replay of the service day would. Keeping the claim inside the chunk
// entry means Claim and Winner touch one map, not two.
type entry struct {
	size    int64
	at      int64 // earliest claim instant, ns from day start
	user    int64
	claimed bool
}

// beats reports whether claim (at, user) precedes the entry's current
// claim in (instant, user) order; the user index breaks ties
// deterministically. An unclaimed entry is beaten by any claim.
func (e *entry) beats(at, user int64) bool {
	return !e.claimed || at < e.at || (at == e.at && user < e.user)
}

// ChunkRef is an opaque handle to one chunk's store entry, returned by
// ClaimBatchRef. Entries are slab-allocated and never move, so a ref
// taken during the claim pass stays valid for the life of the store.
// The zero ChunkRef refers to nothing and never wins.
type ChunkRef struct{ e *entry }

// WonBy reports whether (at, user) is the earliest recorded claim for
// the referenced chunk — Winner without the map probe or the lock.
// Callers must not race it against in-flight Claim traffic: it is
// meant for the resolve phase of a claim/resolve protocol, after every
// claimant has synchronised with the claim pass (e.g. the fleet
// engine's barrier between its two RunN fan-outs).
func (r ChunkRef) WonBy(at, user int64) bool {
	e := r.e
	return e != nil && e.claimed && e.at == at && e.user == user
}

// NewStore returns an empty store with DefaultShards lock stripes.
func NewStore() *Store { return NewStoreSharded(DefaultShards) }

// NewStoreSharded returns an empty store with n lock stripes, rounded
// up to a power of two (minimum 1; n=1 is a single-lock store).
func NewStoreSharded(n int) *Store { return NewStoreShardedSized(n, 0) }

// NewStoreShardedSized is NewStoreSharded with a capacity hint: the
// per-shard chunk maps are pre-sized for expectedChunks total unique
// chunks, so a caller that knows its offered load (a fleet day, a
// benchmark hammer) skips the incremental map growth on the hot path.
// The hint only affects allocation, never behaviour.
func NewStoreShardedSized(n, expectedChunks int) *Store {
	if n < 1 {
		n = 1
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	perShard := 0
	if expectedChunks > 0 {
		perShard = expectedChunks / pow
	}
	s := &Store{shards: make([]shard, pow), mask: uint32(pow - 1)}
	for i := range s.shards {
		s.shards[i].chunks = make(map[Hash]int32, perShard)
	}
	return s
}

// Shards returns the number of lock stripes.
func (s *Store) Shards() int { return len(s.shards) }

// ShardOf returns the index of the lock stripe h routes to. Callers
// batching claims group hashes by this index and hand each group to
// ClaimBatchRef, paying one lock acquisition per group instead of one
// per chunk.
func (s *Store) ShardOf(h Hash) int {
	return int(binary.LittleEndian.Uint32(h[:4]) & s.mask)
}

// shardFor routes a content address to its stripe by hash prefix;
// SHA-256 output is uniform, so the stripes load-balance themselves.
func (s *Store) shardFor(h Hash) *shard {
	return &s.shards[binary.LittleEndian.Uint32(h[:4])&s.mask]
}

// Has reports whether the store already holds content with this hash.
func (s *Store) Has(h Hash) bool {
	sh := s.shardFor(h)
	sh.mu.Lock()
	_, ok := sh.chunks[h]
	sh.mu.Unlock()
	return ok
}

// Put stores a chunk and reports whether it was new. Storing an
// already-present chunk is a no-op (and counts as a dedup hit).
func (s *Store) Put(data []byte) (h Hash, isNew bool) {
	h = HashBytes(data)
	return h, s.PutHashed(h, int64(len(data)))
}

// PutHashed is Put for a caller that already computed the content
// address (the deduplicating client hashes every chunk before asking
// the server about it, so hashing twice per chunk is pure waste). It
// reports whether the chunk was new — one map lookup decides both the
// insert and the dedup verdict, so callers no longer pair it with a
// separate Has.
func (s *Store) PutHashed(h Hash, size int64) (isNew bool) {
	sh := s.shardFor(h)
	sh.mu.Lock()
	isNew = sh.putLocked(h, size)
	sh.mu.Unlock()
	return isNew
}

// putLocked inserts a chunk into a locked shard, maintaining the
// per-shard counters. One lookup: the insert and the hit verdict come
// off the same map access.
func (sh *shard) putLocked(h Hash, size int64) (isNew bool) {
	if _, ok := sh.chunks[h]; ok {
		sh.hits.Add(1)
		return false
	}
	idx, e := sh.slab.alloc()
	e.size = size
	sh.chunks[h] = idx
	sh.bytes.Add(size)
	sh.unique.Add(1)
	return true
}

// claimLocked records (at, user) as a would-be uploader of h in a
// locked shard; the earliest (at, user) pair wins. One map access
// covers the insert, the counters and the claim minimum; the
// returned entry is the chunk's stable slab slot.
func (sh *shard) claimLocked(h Hash, size, at, user int64) *entry {
	idx, ok := sh.chunks[h]
	if !ok {
		idx, e := sh.slab.alloc()
		*e = entry{size: size, at: at, user: user, claimed: true}
		sh.chunks[h] = idx
		sh.bytes.Add(size)
		sh.unique.Add(1)
		return e
	}
	e := sh.slab.at(idx)
	sh.hits.Add(1)
	if e.beats(at, user) {
		e.at, e.user, e.claimed = at, user, true
	}
	return e
}

// Claim records (at, user) as a would-be uploader of chunk h during a
// fleet day. The store keeps the earliest claim in (at, user) order —
// a pure function of the offered load, independent of the execution
// order of concurrent claimants — so a parallel fleet pass resolves
// exactly the upload set a sequential virtual-time replay would: the
// earliest claimant uploads, everyone else deduplicates (see Winner).
// The chunk itself is stored as by PutHashed, and the claim counts
// identically toward the unique/hit counters.
func (s *Store) Claim(h Hash, size int64, at, user int64) {
	sh := s.shardFor(h)
	sh.mu.Lock()
	sh.claimLocked(h, size, at, user)
	sh.mu.Unlock()
}

// ClaimBatchRef is Claim for a group of chunks that all route to the
// same shard (group with ShardOf): one lock acquisition covers the
// whole batch. The batch is processed in order and is exactly
// equivalent to calling Claim(hs[i], sizes[i], at, user) for each i —
// the claim minimum is order-free, so batching cannot change the
// resolved upload set. Each chunk's ChunkRef lands in out[i]: the
// claim probe already finds the entry, so a claimant that will later
// ask Winner can keep the handle and resolve through ChunkRef.WonBy
// without a second map probe. hs, sizes and out must have equal
// length; an empty batch is a no-op.
func (s *Store) ClaimBatchRef(hs []Hash, sizes []int64, at, user int64, out []ChunkRef) {
	if len(hs) == 0 {
		return
	}
	sh := s.shardFor(hs[0])
	sh.mu.Lock()
	for i, h := range hs {
		out[i] = ChunkRef{sh.claimLocked(h, sizes[i], at, user)}
	}
	sh.mu.Unlock()
}

// Winner reports whether (at, user) is the earliest recorded claim
// for h — i.e. whether that claimant pays the upload while every
// other claimant of the same chunk deduplicates against it. Reading
// an unclaimed hash returns false.
func (s *Store) Winner(h Hash, at, user int64) bool {
	sh := s.shardFor(h)
	sh.mu.Lock()
	won := false
	if idx, ok := sh.chunks[h]; ok {
		e := sh.slab.at(idx)
		won = e.claimed && e.at == at && e.user == user
	}
	sh.mu.Unlock()
	return won
}

// Size returns the stored size of a chunk, or 0 if absent.
func (s *Store) Size(h Hash) int64 {
	sh := s.shardFor(h)
	sh.mu.Lock()
	var size int64
	if idx, ok := sh.chunks[h]; ok {
		size = sh.slab.at(idx).size
	}
	sh.mu.Unlock()
	return size
}

// UniqueChunks returns how many distinct chunks the store holds,
// aggregated across shards without taking any lock.
func (s *Store) UniqueChunks() int {
	var n int64
	for i := range s.shards {
		n += s.shards[i].unique.Load()
	}
	return int(n)
}

// StoredBytes returns the total bytes of unique content stored — the
// "storage capacity" the paper's dedup capability saves — aggregated
// across shards without taking any lock.
func (s *Store) StoredBytes() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].bytes.Load()
	}
	return n
}

// Hits returns how many Put/PutHashed/Claim calls were deduplicated
// away, aggregated across shards without taking any lock.
func (s *Store) Hits() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].hits.Load()
	}
	return n
}
